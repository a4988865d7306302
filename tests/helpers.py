"""Shared test utilities: random graph builders and brute-force oracles.

The oracles deliberately take the most literal route (path enumeration,
pairwise double loops) so they stay independent of the library's own
algorithms.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from typing import Iterable, Sequence

import numpy as np

from effgravity import UNREACHABLE, Graph, ParseError, ParseReport, SIConfig, hop_distances
from effgravity.graph import COMMENT_PREFIXES


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Random spanning tree plus independent extra edges."""
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[int(rng.integers(0, idx))])
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph.from_edges(n, sorted(edges))


def oracle_graphs(seed: int = 0) -> list[Graph]:
    """Seeded random graphs covering connected, disconnected and edgeless cases.

    The sparse ones break into components and leave nodes isolated, which
    exercises the unreachable-pair and zero-distance branches of the hop
    reducers.
    """
    rng = np.random.default_rng(seed)
    graphs = [Graph.from_edges(1, []), Graph.from_edges(4, [])]
    for n, p in ((9, 0.1), (14, 0.12), (20, 0.08), (16, 0.4)):
        graphs.append(random_graph(rng, n, p))
    graphs.append(random_connected_graph(rng, 18, 0.15))
    graphs.append(Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
    return graphs


def ba_graph_with_leaves(rng: np.random.Generator, n: int, k: int, leaves: int) -> Graph:
    """Preferential attachment (a star on k + 1 nodes, then k degree-biased
    links per new node) plus ``leaves`` pendant nodes hung on random nodes.

    A pendant leaf has degree 1, so the edge leaving it costs log2(1) = 0 in
    the effective-distance weighting.
    """
    edges = [(k, j) for j in range(k)]
    pool = [v for edge in edges for v in edge]
    for new in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            targets.add(pool[int(rng.integers(len(pool)))])
        for t in sorted(targets):
            edges.append((t, new))
            pool += [t, new]
    for leaf in range(n, n + leaves):
        edges.append((int(rng.integers(n)), leaf))
    return Graph.from_edges(n + leaves, edges)


def layered_graph(rng: np.random.Generator, layers: int, width: int, p: float) -> Graph:
    """Random links between consecutive layers of ``width`` nodes; the first
    node of each layer links to every node of the next, so all are reached.

    Shortest-path counts multiply from layer to layer and soon pass 2**53,
    where float sums stop being exact and their order shows in the result.
    """
    edges = []
    for layer in range(layers - 1):
        here = range(layer * width, (layer + 1) * width)
        for u in here:
            for v in range((layer + 1) * width, (layer + 2) * width):
                if u == here[0] or rng.random() < p:
                    edges.append((u, v))
    return Graph.from_edges(layers * width, edges)


def engine_graphs() -> list[Graph]:
    """The oracle graphs plus shapes that stress one part of the per-source
    sweeps each: a star and a path (widest and longest levels), a cycle
    (two fronts meeting), a preferential-attachment graph with zero-cost
    leaf edges, isolated nodes among two components, and a layered graph
    whose path counts are too large to sum exactly.
    """
    rng = np.random.default_rng(5)
    return oracle_graphs() + [
        Graph.from_edges(9, [(0, i) for i in range(1, 9)]),
        Graph.from_edges(12, [(i, i + 1) for i in range(11)]),
        Graph.from_edges(11, [(i, (i + 1) % 11) for i in range(11)]),
        ba_graph_with_leaves(rng, 60, 3, 15),
        Graph.from_edges(10, [(1, 2), (2, 4), (4, 1), (6, 7), (7, 8)]),
        layered_graph(rng, 30, 7, 0.6),
    ]


def from_edges_by_lists(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """``Graph.from_edges`` with a Python set of seen pairs and one Python
    list of neighbors per node, checking each pair in input order."""
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(a) for a in adjacency])
    indices = np.fromiter(
        (w for a in adjacency for w in sorted(a)), dtype=np.int64, count=int(indptr[-1])
    )
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return Graph(indptr=indptr, indices=indices, labels=labels)


def edges_by_rows(graph: Graph):
    """``Graph.edges`` row by row: each edge once as (u, v) with u < v."""
    for u in range(graph.n):
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]:
            if v > u:
                yield u, int(v)


def parse_edge_list_by_set(
    source: str | bytes | Iterable[str],
    comment_prefixes: tuple[str, ...] = COMMENT_PREFIXES,
) -> tuple[Graph, ParseReport]:
    """``parse_edge_list`` one line at a time, with a Python set of the kept
    pairs, building through :func:`from_edges_by_lists`. Bytes are decoded
    as plain UTF-8, so this oracle does not skip a byte-order mark."""
    if isinstance(source, bytes):
        lines: Iterable[str] = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source

    label_to_index: dict[str, int] = {}
    labels: list[str] = []
    edge_set: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    loops = 0
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected two node labels, got {len(tokens)}: {raw.rstrip()!r}", lineno
            )
        pair = []
        for token in tokens:
            index = label_to_index.get(token)
            if index is None:
                index = len(labels)
                label_to_index[token] = index
                labels.append(token)
            pair.append(index)
        u, v = pair
        if u == v:
            loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in edge_set:
            duplicates += 1
            continue
        edge_set.add(key)
        edges.append(key)
    if not labels:
        raise ParseError("no nodes found in edge-list input")
    graph = from_edges_by_lists(len(labels), edges, tuple(labels))
    return graph, ParseReport(loops_dropped=loops, duplicates_merged=duplicates)


def hop_distances_by_queue(graph: Graph, source: int) -> np.ndarray:
    """Breadth-first hop counts from ``source`` with a FIFO queue, one node at a time."""
    graph.check_node(source)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    indptr, indices = graph.indptr, graph.indices
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(int(v))
    return dist


def effective_distances_by_heap(graph: Graph, source: int) -> np.ndarray:
    """Effective distances from ``source`` by a binary-heap Dijkstra, one node at a time."""
    graph.check_node(source)
    n = graph.n
    # weight of every edge leaving u; isolated nodes have no outgoing edges
    leave_cost = np.log2(np.maximum(graph.degrees, 1)).astype(np.float64)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr, indices = graph.indptr, graph.indices
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        du = d + leave_cost[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            if du < dist[v]:
                dist[v] = du
                heapq.heappush(heap, (du, int(v)))
    result = dist + 1.0
    result[source] = np.inf
    return result


def betweenness_by_stack(graph: Graph) -> np.ndarray:
    """Brandes betweenness (unordered pairs) with a per-source queue and a
    stack, one node and one predecessor at a time."""
    n = graph.n
    indptr, indices = graph.indptr, graph.indices
    bc = np.zeros(n, dtype=np.float64)
    for s in range(n):
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        preds: list[list[int]] = [[] for _ in range(n)]
        stack: list[int] = []
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            stack.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                v = int(v)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n, dtype=np.float64)
        for w in reversed(stack):
            coeff = (1.0 + delta[w]) / sigma[w]
            for u in preds[w]:
                delta[u] += sigma[u] * coeff
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0


def hop_distance_totals_per_source(graph: Graph) -> tuple[int, int]:
    """Summed hop distance and count over reachable ordered pairs, one BFS per source."""
    total_distance = 0
    reachable_pairs = 0
    for source in range(graph.n):
        row = hop_distances(graph, source)
        mask = row > 0
        total_distance += int(row[mask].sum())
        reachable_pairs += int(mask.sum())
    return total_distance, reachable_pairs


def closeness_per_source(graph: Graph) -> np.ndarray:
    """Reciprocal summed hop distance per node, one BFS per source; 0 with no peers."""
    scores = np.zeros(graph.n, dtype=np.float64)
    for i in range(graph.n):
        row = hop_distances(graph, i)
        total = int(row[row > 0].sum())
        if total > 0:
            scores[i] = 1.0 / total
    return scores


def gravity_per_source(graph: Graph) -> np.ndarray:
    """deg(i) * sum of deg(j) / d(i, j)^2 over reachable j, one BFS per source."""
    degrees = graph.degrees.astype(np.float64)
    scores = np.zeros(graph.n, dtype=np.float64)
    for i in range(graph.n):
        row = hop_distances(graph, i)
        mask = row > 0
        scores[i] = degrees[i] * float(np.sum(degrees[mask] / row[mask] ** 2))
    return scores


def gravity_over_rows(graph: Graph, rows) -> np.ndarray:
    """deg(i) * sum of deg(j) / rows[i][j]^2 over the finite entries of each row."""
    degrees = graph.degrees.astype(np.float64)
    scores = np.zeros(graph.n, dtype=np.float64)
    for i, row in enumerate(rows):
        finite = np.isfinite(row)
        scores[i] = degrees[i] * float(np.sum(degrees[finite] / row[finite] ** 2))
    return scores


def hop_row(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` as floats, with ``inf`` for the source
    itself and for unreachable targets, the layout of an effective-distance row."""
    row = hop_distances(graph, source).astype(np.float64)
    row[row < 0] = np.inf
    row[source] = np.inf
    return row


def si_curves_per_seed_set(graph: Graph, seed_sets, config: SIConfig) -> np.ndarray:
    """Per-run infected counts, shape (runs, seed sets, t_max + 1), simulated
    one seed set and one run at a time.

    Each (seed set, run) rebuilds the run's generator from (seed, run) and
    draws one uniform per adjacency slot per step until no infected node
    borders a susceptible one; from then on the count stays put.
    """
    src = graph.edge_sources
    dst = graph.indices
    curves = np.empty((config.runs, len(seed_sets), config.t_max + 1), dtype=np.int64)
    for index, seeds in enumerate(seed_sets):
        for run in range(config.runs):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, run)))
            infected = np.zeros(graph.n, dtype=bool)
            infected[list(seeds)] = True
            curve = curves[run, index]
            curve[0] = int(infected.sum())
            for t in range(1, config.t_max + 1):
                exposed = infected[src] & ~infected[dst]
                if not exposed.any():
                    curve[t:] = curve[t - 1]
                    break
                draws = rng.random(dst.size)
                hits = exposed & (draws < config.beta)
                if hits.any():
                    infected[dst[hits]] = True
                curve[t] = int(infected.sum())
    return curves


def effective_distance_bruteforce(graph: Graph) -> np.ndarray:
    """Enumerate every simple path, track its probability product, and take
    the minimum of 1 - log2(product) per ordered pair."""
    n = graph.n
    degrees = graph.degrees
    best = np.full((n, n), np.inf)

    def walk(source: int, u: int, product: float, visited: frozenset) -> None:
        step = product / degrees[u]
        for v in graph.neighbors(u):
            v = int(v)
            if v in visited:
                continue
            value = 1.0 - math.log2(step)
            if value < best[source, v]:
                best[source, v] = value
            walk(source, v, step, visited | {v})

    for source in range(n):
        if degrees[source] > 0:
            walk(source, source, 1.0, frozenset((source,)))
    return best


def betweenness_bruteforce(graph: Graph) -> np.ndarray:
    """Enumerate all shortest paths per unordered pair and count interior visits."""
    n = graph.n
    scores = np.zeros(n)
    for s in range(n):
        dist = hop_distances(graph, s)

        def shortest_paths_to(t: int) -> list[list[int]]:
            if t == s:
                return [[s]]
            paths = []
            for u in graph.neighbors(t):
                u = int(u)
                if dist[u] == dist[t] - 1:
                    paths.extend(path + [t] for path in shortest_paths_to(u))
            return paths

        for t in range(s + 1, n):
            if dist[t] <= 0:
                continue
            paths = shortest_paths_to(t)
            interior = Counter(v for path in paths for v in path[1:-1])
            for v, count in interior.items():
                scores[v] += count / len(paths)
    return scores


def kendall_counts_bruteforce(x, y) -> tuple[int, int]:
    """Classify every unordered index pair as concordant, discordant, or tied."""
    concordant = 0
    discordant = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    return concordant, discordant


def kendall_counts_by_rows(x, y) -> tuple[int, int]:
    """Concordant and discordant pair counts, one row of pairs per element:
    the O(n^2) loop ``kendall_tau`` used before its O(n log n) sort."""
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    concordant = 0
    discordant = 0
    with np.errstate(invalid="ignore"):  # inf - inf is a tie, not an error
        for i in range(xs.size - 1):
            sign = np.sign(xs[i + 1 :] - xs[i]) * np.sign(ys[i + 1 :] - ys[i])
            concordant += int((sign > 0).sum())
            discordant += int((sign < 0).sum())
    return concordant, discordant
