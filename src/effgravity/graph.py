"""Undirected simple graphs in compressed adjacency form.

Nodes carry arbitrary string labels; internally they are dense integer
indices assigned in first-appearance order by the parser. All algorithms in
this package work on indices and only translate back to labels at the I/O
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Hop-distance sentinel for node pairs with no connecting path. Kept as a
# dedicated value (never a large finite number) so distance-weighted sums can
# skip unreachable pairs exactly.
UNREACHABLE = -1

COMMENT_PREFIXES = ("#", "%")
_BOM = "\ufeff"
# labels the parser would skip or strip at the start of a line
_CANNOT_LEAD = COMMENT_PREFIXES + (_BOM,)
# Tokens the parser holds as strings before it maps them to node indices
_CHUNK = 1 << 14


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
        """Build a graph from unique loop-free integer index pairs.

        Raises ValueError naming the first label that repeats an earlier
        one, as no table or edge list could tell those nodes apart; on
        non-integer endpoints; and on the first pair, in input order, that
        is out of range, a self-loop or a repeat of an earlier pair (in
        either orientation). Use :func:`parse_edge_list` for inputs that
        need cleaning.
        """
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise ValueError(f"label {label!r} names more than one node")
            seen.add(label)
        pairs = np.array(list(edges) or np.empty((0, 2), dtype=np.int64))
        if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be pairs of integer node indices")
        u, v = pairs.astype(np.int64).T
        bad = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n) | (u == v)
        indptr, indices, repeated = _csr(n, u[~bad], v[~bad])
        faults = np.concatenate([np.flatnonzero(bad)[:1], np.flatnonzero(~bad)[repeated][:1]])
        if faults.size:
            i = int(faults.min())
            a, b = int(u[i]), int(v[i])
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            raise ValueError(f"duplicate edge ({a}, {b})")
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
        """All-pairs hop distances, reduced to per-node sums.

        The breadth-first searches run 64 sources at a time, one bit per
        source (see :func:`_hop_rows`). Closeness, the gravity score and
        the topology statistics all read these, so the all-pairs hop pass
        runs once per graph. The integer sums are taken a block at a time;
        the gravity sum stays one :func:`gravity_sum` per source, over its
        int64 row, so its float additions keep their order.
        """
        degrees = self.degrees.astype(np.float64)
        distance = np.zeros(self.n, dtype=np.int64)
        reachable = np.zeros(self.n, dtype=np.int64)
        gravity = np.zeros(self.n, dtype=np.float64)
        for start in range(0, self.n, _BLOCK):
            block = np.arange(start, min(start + _BLOCK, self.n))
            rows = _hop_rows(self, block)
            distance[block] = rows.clip(min=0).sum(axis=1, dtype=np.int64)
            reachable[block] = np.count_nonzero(rows > 0, axis=1)
            for source, row in zip(block, rows):
                row = row.astype(np.int64)
                gravity[source] = gravity_sum(degrees, row, row > 0)
        for array in (distance, reachable, gravity):
            array.setflags(write=False)
        return HopSums(distance, reachable, gravity)

    def neighbors(self, i: int) -> np.ndarray:
        self.check_node(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"node index {i} out of range for {self.n} nodes")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, ordered by (u, v)."""
        upper = self.edge_sources < self.indices
        return zip(self.edge_sources[upper].tolist(), self.indices[upper].tolist())

    def to_edge_list(self) -> str:
        """Serialize as edge-list text, one edge per line, that parses back.

        Lines are ``"<a> <b>"`` with (a, b) the endpoint labels ordered so
        a <= b, sorted by (a, b), except that a label starting with '#', '%'
        or a byte-order mark goes second: at the start of a line the parser
        would skip or strip it. Nodes without any edge are not representable
        in this format.

        Raises ValueError naming a label that cannot be written so that it
        parses back: one that is empty or holds whitespace or a comma, or
        an edge whose two labels both start with one of those prefixes.
        Only labels given to :meth:`from_edges` can be empty or hold a
        separator.
        """
        pairs = []
        for u, v in self.edges():
            a, b = sorted((self.labels[u], self.labels[v]))
            for label in (a, b):
                if label.split() != [label] or "," in label:
                    raise ValueError(f"label {label!r} is not a single edge-list token")
            if a.startswith(_CANNOT_LEAD):
                if b.startswith(_CANNOT_LEAD):
                    raise ValueError(f"edge ({a!r}, {b!r}): neither label can start a line")
                a, b = b, a
            pairs.append((a, b))
        return "".join(f"{a} {b}\n" for a, b in sorted(pairs))


def parse_edge_list(source: str | bytes | Iterable[str]) -> tuple[Graph, ParseReport]:
    """Parse edge-list text into a graph plus a cleaning report.

    Each data line holds two node labels separated by whitespace and/or a
    comma. Lines starting with '#' or '%' and blank lines are skipped, and
    a byte-order mark at the start of the first line is ignored, whether
    the input is bytes, a string or lines of text.
    Self-loops are dropped and duplicate edges (either orientation) merged;
    both are counted in the report. Node indices follow first appearance.

    Raises ParseError with the offending line number for lines that do not
    split into exactly two tokens, and for input containing no nodes at all.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = iter(source.splitlines() if isinstance(source, str) else source)
    first = next(lines, "").removeprefix(_BOM)

    labels, ends = _label_ends(chain([first], lines))
    if not labels:
        raise ParseError("no nodes found in edge-list input")
    u, v = ends[0::2], ends[1::2]
    loop = u == v
    indptr, indices, repeated = _csr(len(labels), u[~loop], v[~loop])
    report = ParseReport(loops_dropped=int(loop.sum()), duplicates_merged=int(repeated.sum()))
    return Graph(indptr=indptr, indices=indices, labels=labels), report


def _label_ends(lines: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Node labels in first-appearance order, and the int64 node index of
    every token on the data lines, two per line in line order.

    Every ``_CHUNK`` tokens are mapped to indices and their strings dropped,
    so one chunk of token strings is alive at a time next to the distinct
    labels, and the dict and the per-chunk arrays are gone on return.
    """
    index: dict[str, int] = {}
    parts: list[np.ndarray] = []
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        pair = line.replace(",", " ").split()
        if len(pair) != 2:
            raise ParseError(
                f"expected two node labels, got {len(pair)}: {raw.rstrip()!r}", lineno
            )
        tokens += pair
        if len(tokens) >= _CHUNK:
            parts.append(_label_indices(index, tokens))
            tokens = []
    parts.append(_label_indices(index, tokens))
    return tuple(index), np.concatenate(parts)


def _label_indices(index: dict[str, int], tokens: list[str]) -> np.ndarray:
    """Indices of ``tokens`` as int64, adding the labels ``index`` lacks in
    first-appearance order, with C-level calls rather than a loop per label.

    Filtering out the known labels before removing repeats keeps the
    temporary dict to the chunk's new labels.
    """
    new = dict.fromkeys(filterfalse(index.__contains__, tokens))
    index.update(zip(new, count(len(index))))
    return np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))


def load_edge_list(path) -> tuple[Graph, ParseReport]:
    """Read and parse a UTF-8 edge-list file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric adjacency of the loop-free, in-range int64 pairs (u[i], v[i]).

    Returns read-only ``indptr`` and ``indices`` (each row ascending) and a
    mask of the pairs that repeat an earlier pair in either orientation;
    those add nothing. A stable sort of the keys ``min * n + max`` puts each
    pair right after its earlier repeats, so comparing neighbouring keys
    marks every occurrence but the first.
    """
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeat = np.zeros(keys.size, dtype=bool)
    repeat[1:] = ordered[1:] == ordered[:-1]
    repeated = np.empty_like(repeat)
    repeated[order] = repeat
    edges = ordered[~repeat]
    low, high = np.divmod(edges, n)
    # every edge in both orientations, keyed source * n + target
    rows, indices = np.divmod(np.sort(np.concatenate([edges, high * n + low])), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices, repeated


def _adjacency_slots(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Indices into ``graph.indices`` of every neighbor of the non-empty
    ``nodes``.

    The slots come node by node in the order of ``nodes``, each node's in
    ascending neighbor order, as a loop over ``nodes`` would visit them.
    """
    counts = graph.degrees.take(nodes)
    ends = counts.cumsum()
    return (graph.indptr.take(nodes) - (ends - counts)).repeat(counts) + np.arange(ends[-1])


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

    Brandes betweenness is its only caller, because each BFS level there
    must keep FIFO order. The label correction in ``effective_distance``
    needs only a distinct set, in any order, and dedupes with one plain
    scatter instead.
    """
    position = np.arange(values.size)
    np.minimum.at(first_seen, values, position)
    distinct = values.take((first_seen.take(values) == position).nonzero()[0])
    first_seen[distinct] = _NOT_SEEN
    return distinct


# Sources per bit-parallel hop search: one bit of a uint64 word each.
_BLOCK = np.iinfo(np.uint64).bits


def _hop_rows(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Hop counts from up to ``_BLOCK`` distinct ``sources``, searched together.

    Returns an int32 array of shape ``(len(sources), n)`` whose row i holds
    the hop counts from ``sources[i]``, UNREACHABLE where no path exists.
    Each node keeps one uint64 word whose bit i says that source i has
    reached it. A level pulls every node's word from the frontier words of
    its neighbors, so it costs O(m) for the whole block; the bits not seen
    before are recorded at that level, and the search stops when a level
    adds none. Working memory is O(m + 64 n).
    """
    n, count = graph.n, len(sources)
    # reduceat gives an empty segment the next element, so only nodes with
    # neighbors take part in the pull
    has_edges = np.flatnonzero(graph.degrees)
    starts = graph.indptr[has_edges]
    visited = np.zeros(n, dtype=np.uint64)
    visited[sources] = np.left_shift(np.uint64(1), np.arange(count, dtype=np.uint64))
    frontier = visited.copy()
    levels = np.zeros((n, count), dtype=np.int32)
    level = 0
    while True:
        level += 1
        reached = np.zeros(n, dtype=np.uint64)
        reached[has_edges] = np.bitwise_or.reduceat(frontier[graph.indices], starts)
        frontier = reached & ~visited
        hit = np.flatnonzero(frontier)
        if not hit.size:
            break
        visited |= frontier
        # an explicit int32 product: uint8 bits times a level past 255 would overflow
        levels[hit] += np.multiply(_bits(frontier[hit], count), level, dtype=np.int32)
    levels[_bits(visited, count) == 0] = UNREACHABLE
    return np.ascontiguousarray(levels.T)


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """``(len(words), count)`` uint8 table of the lowest ``count`` bits of ``words``."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little")


def hop_distances(graph: Graph, source: int) -> np.ndarray:
    """Breadth-first hop counts from ``source``; UNREACHABLE where no path exists.

    This is the one-source block of the bit-parallel search that
    :attr:`Graph.hop_sums` runs 64 sources at a time.
    """
    graph.check_node(source)
    return _hop_rows(graph, np.array([source]))[0].astype(np.int64)


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
