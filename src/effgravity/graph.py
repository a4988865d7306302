"""Undirected simple graphs in compressed adjacency form.

Nodes carry arbitrary string labels; internally they are dense integer
indices assigned in first-appearance order by the parser. All algorithms in
this package work on indices and only translate back to labels at the I/O
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Hop-distance sentinel for node pairs with no connecting path. Kept as a
# dedicated value (never a large finite number) so distance-weighted sums can
# skip unreachable pairs exactly.
UNREACHABLE = -1

COMMENT_PREFIXES = ("#", "%")


class ParseError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class HopSums(NamedTuple):
    """Per-node sums over the peers j != i reachable from i, at hop distance d(i, j)."""

    distance: np.ndarray  # sum of d(i, j), int64
    reachable: np.ndarray  # number of such peers, int64
    gravity: np.ndarray  # sum of degree(j) / d(i, j)^2, float64


@dataclass(frozen=True)
class ParseReport:
    """Counts of degenerate input rows dropped during parsing."""

    loops_dropped: int = 0
    duplicates_merged: int = 0


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    The neighbors of node ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending. ``labels[i]`` is node i's original label. The structure
    is symmetric, loop-free and duplicate-free by construction, and safe for
    concurrent reads.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a graph from unique loop-free index pairs.

        Raises ValueError on self-loops, duplicate edges (in either
        orientation) or out-of-range endpoints; use :func:`parse_edge_list`
        for inputs that need cleaning.
        """
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
        return cls(indptr=indptr, indices=indices, labels=labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return int(self.indices.size) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.diff(self.indptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def edge_sources(self) -> np.ndarray:
        """Source node of each directed adjacency slot, aligned with ``indices``."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        src.setflags(write=False)
        return src

    @cached_property
    def hop_sums(self) -> HopSums:
        """One breadth-first search per source, reduced to per-node sums.

        Closeness, the gravity score and the topology statistics all read
        these, so the all-pairs hop pass runs once per graph.
        """
        degrees = self.degrees.astype(np.float64)
        distance = np.zeros(self.n, dtype=np.int64)
        reachable = np.zeros(self.n, dtype=np.int64)
        gravity = np.zeros(self.n, dtype=np.float64)
        for source in range(self.n):
            row = hop_distances(self, source)
            mask = row > 0
            distance[source] = row[mask].sum()
            reachable[source] = mask.sum()
            gravity[source] = gravity_sum(degrees, row, mask)
        for array in (distance, reachable, gravity):
            array.setflags(write=False)
        return HopSums(distance, reachable, gravity)

    @cached_property
    def label_to_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def degree(self, i: int) -> int:
        self.check_node(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i: int) -> np.ndarray:
        self.check_node(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"node index {i} out of range for {self.n} nodes")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.indices[self.indptr[u] : self.indptr[u + 1]]:
                if v > u:
                    yield u, int(v)

    def to_edge_list(self) -> str:
        """Serialize as edge-list text, one edge per line.

        Lines are ``"<a> <b>"`` with (a, b) the endpoint labels ordered so
        a <= b, sorted by (a, b). Nodes without any edge are not
        representable in this format.
        """
        pairs = []
        for u, v in self.edges():
            lu, lv = self.labels[u], self.labels[v]
            pairs.append((lu, lv) if lu <= lv else (lv, lu))
        pairs.sort()
        return "".join(f"{a} {b}\n" for a, b in pairs)


def parse_edge_list(
    source: str | bytes | Iterable[str],
    comment_prefixes: tuple[str, ...] = COMMENT_PREFIXES,
) -> tuple[Graph, ParseReport]:
    """Parse edge-list text into a graph plus a cleaning report.

    Each data line holds two node labels separated by whitespace and/or a
    comma. Lines starting with '#' or '%' and blank lines are skipped.
    Self-loops are dropped and duplicate edges (either orientation) merged;
    both are counted in the report. Node indices follow first appearance.

    Raises ParseError with the offending line number for lines that do not
    split into exactly two tokens, and for input containing no nodes at all.
    """
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
    graph = Graph.from_edges(len(labels), edges, tuple(labels))
    return graph, ParseReport(loops_dropped=loops, duplicates_merged=duplicates)


def load_edge_list(path) -> tuple[Graph, ParseReport]:
    """Read and parse an edge-list file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def _adjacency_slots(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Indices into ``graph.indices`` of every neighbor of the non-empty
    ``nodes``.

    The slots come node by node in the order of ``nodes``, each node's in
    ascending neighbor order, as a loop over ``nodes`` would visit them.
    """
    counts = graph.degrees[nodes]
    ends = np.cumsum(counts)
    return np.repeat(graph.indptr[nodes] - (ends - counts), counts) + np.arange(ends[-1])


# Marks an unused entry of the scratch array that _first_occurrences takes.
_NOT_SEEN = np.iinfo(np.int64).max


def _first_occurrences(values: np.ndarray, first_seen: np.ndarray) -> np.ndarray:
    """Distinct entries of ``values`` in the order they first appear.

    ``first_seen`` is int64 scratch indexed by value. It must hold
    ``_NOT_SEEN`` wherever ``values`` points, and it does again on return, so
    a caller allocates it once (``np.full(n, _NOT_SEEN)``) for many calls.
    Unlike ``np.unique`` it does not sort, and it does not import
    ``numpy.ma``, which ``np.unique`` does on first use in numpy 2.4 and
    which adds about 1.6 MB to a process's peak RSS.
    """
    position = np.arange(values.size)
    np.minimum.at(first_seen, values, position)
    distinct = values[first_seen[values] == position]
    first_seen[distinct] = _NOT_SEEN
    return distinct


def hop_distances(graph: Graph, source: int) -> np.ndarray:
    """Breadth-first hop counts from ``source``; UNREACHABLE where no path exists.

    The search advances one whole level at a time: the unvisited neighbors
    of the current level form the next one.
    """
    graph.check_node(source)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    first_seen = np.full(graph.n, _NOT_SEEN)
    level = 0
    while frontier.size:
        level += 1
        targets = graph.indices[_adjacency_slots(graph, frontier)]
        frontier = _first_occurrences(targets[dist[targets] == UNREACHABLE], first_seen)
        dist[frontier] = level
    return dist


def gravity_sum(degrees: np.ndarray, row: np.ndarray, mask: np.ndarray) -> float:
    """Sum of degrees[j] / row[j]^2 over the targets j selected by ``mask``."""
    return float(np.sum(degrees[mask] / row[mask] ** 2))


@dataclass(frozen=True)
class TopologyStats:
    """Whole-graph summary record.

    ``avg_distance`` averages hop distance over reachable ordered pairs only;
    ``unreachable_pair_fraction`` reports the share of ordered pairs that were
    skipped. ``assortativity`` is None when the degree variance across edge
    endpoints is zero (e.g. regular graphs), where the coefficient is
    undefined.
    """

    n: int
    m: int
    avg_degree: float
    avg_distance: float
    clustering: float
    assortativity: float | None
    unreachable_pair_fraction: float


def topology_stats(graph: Graph) -> TopologyStats:
    """Node/edge counts, mean degree and distance, clustering, assortativity."""
    n = graph.n
    if n == 0:
        raise ValueError("topology statistics are undefined for an empty graph")
    m = graph.m
    total_distance = int(graph.hop_sums.distance.sum())
    reachable_pairs = int(graph.hop_sums.reachable.sum())
    ordered_pairs = n * (n - 1)
    avg_distance = total_distance / reachable_pairs if reachable_pairs else 0.0
    unreachable_fraction = (
        1.0 - reachable_pairs / ordered_pairs if ordered_pairs else 0.0
    )
    return TopologyStats(
        n=n,
        m=m,
        avg_degree=2.0 * m / n,
        avg_distance=avg_distance,
        clustering=_average_clustering(graph),
        assortativity=_degree_assortativity(graph),
        unreachable_pair_fraction=unreachable_fraction,
    )


def _average_clustering(graph: Graph) -> float:
    """Mean over nodes of (closed neighbor pairs / all neighbor pairs); 0 below degree 2."""
    n = graph.n
    neighbor_sets = [set(map(int, graph.neighbors(u))) for u in range(n)]
    total = 0.0
    for u in range(n):
        nbrs = neighbor_sets[u]
        k = len(nbrs)
        if k < 2:
            continue
        closed = sum(len(neighbor_sets[v] & nbrs) for v in nbrs) // 2
        total += closed / (k * (k - 1) / 2)
    return total / n


def _degree_assortativity(graph: Graph) -> float | None:
    """Pearson correlation of endpoint degrees over directed edge slots."""
    if graph.m == 0:
        return None
    deg = graph.degrees.astype(np.float64)
    x = deg[graph.edge_sources]
    y = deg[graph.indices]
    # x and y hold the same multiset (every edge appears in both orientations)
    variance = x.var()
    if variance == 0.0:
        return None
    covariance = (x * y).mean() - x.mean() * y.mean()
    return float(covariance / variance)
