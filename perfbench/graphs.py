"""Seeded synthetic graphs for the benchmark, built with numpy alone.

Both generators return a ``(u, v)`` pair of int64 arrays with one row per
undirected edge, u != v and no duplicates, in generation order. Equal
generator states give equal arrays; numpy does not promise the same stream
across its versions, which is why each reference records its input's
SHA-256.
"""

from __future__ import annotations

import numpy as np


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Preferential attachment: a star on m+1 nodes, then each new node links to m.

    Targets are drawn from the list of edge endpoints (so proportionally to
    degree) until m distinct ones are found, as in networkx's
    ``barabasi_albert_graph``. The graph has m + (n - m - 1) * m edges.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    edges = m + (n - m - 1) * m
    u = np.empty(edges, dtype=np.int64)
    v = np.empty(edges, dtype=np.int64)
    # every edge puts both endpoints into the attachment pool
    pool = np.empty(2 * edges, dtype=np.int64)
    u[:m] = m
    v[:m] = np.arange(m)
    pool[: 2 * m : 2] = m
    pool[1 : 2 * m : 2] = np.arange(m)
    filled, pool_size = m, 2 * m
    for source in range(m + 1, n):
        targets: list[int] = []
        while len(targets) < m:
            for candidate in pool[rng.integers(0, pool_size, size=2 * m)].tolist():
                if candidate not in targets:
                    targets.append(candidate)
                    if len(targets) == m:
                        break
        u[filled : filled + m] = source
        v[filled : filled + m] = targets
        pool[pool_size : pool_size + 2 * m : 2] = source
        pool[pool_size + 1 : pool_size + 2 * m : 2] = targets
        filled += m
        pool_size += 2 * m
    return u, v


def erdos_renyi(n: int, edges: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """G(n, M): ``edges`` distinct node pairs drawn uniformly, in draw order."""
    if not 0 <= edges <= n * (n - 1) // 2:
        raise ValueError(f"cannot place {edges} edges among {n} nodes")
    keys = np.empty(0, dtype=np.int64)
    while keys.size < edges:
        a = rng.integers(0, n, size=edges)
        b = rng.integers(0, n, size=edges)
        keep = a != b
        drawn = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
        keys = np.concatenate([keys, drawn])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:edges]
    return keys // n, keys % n


def edge_list_text(u: np.ndarray, v: np.ndarray) -> bytes:
    """One ``"<u> <v>"`` line per edge, labels being the generator's node ids."""
    return "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())).encode()
