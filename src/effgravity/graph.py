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

# Hop count that hop_distances returns where no path exists, never a large
# finite number. Inside the hop layer 0 means "no path", as in the search's
# bit words, since no sum counts a node's distance to itself.
UNREACHABLE = -1

COMMENT_PREFIXES = ("#", "%")
_BOM = "\ufeff"
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

        Closeness and the gravity score both read these, so the all-pairs
        hop pass runs once per graph for both, ``_BLOCK`` consecutive
        sources at a time. Each level of a block's search (see
        :func:`_hop_levels`) writes its number into an int32 table of the
        block's rows, in O(64 n) memory, where an unreached target and the
        source itself keep 0 and add to neither sum. The integer sums are
        taken a block of rows at a time.
        :func:`gravity_sums` reduces the gravity sums of as many of the
        block's rows at once as fit the sweeps' slot budget (rows x n at
        most ``_SLOT_BUDGET``, at least one row), each row in the order
        ``np.sum`` adds it alone, so its float64 terms never outgrow the
        sweeps' own per-level arrays.
        """
        n = self.n
        degrees = self.degrees.astype(np.float64)
        distance = np.zeros(n, dtype=np.int64)
        gravity = np.zeros(n, dtype=np.float64)
        chunk = max(1, _SLOT_BUDGET // max(n, 1))
        _raise_heap_thresholds()
        for start in range(0, n, _BLOCK):
            block = np.arange(start, min(start + _BLOCK, n))
            levels = np.zeros((n, block.size), dtype=np.int32)
            for level, (hit, words) in enumerate(_hop_levels(self, block), start=1):
                # an explicit int32 product: uint8 bits times a level past 255 would overflow
                levels[hit] += np.multiply(_bits(words, block.size), level, dtype=np.int32)
            rows = np.ascontiguousarray(levels.T)
            distance[block] = rows.sum(axis=1, dtype=np.int64)
            for first in range(0, block.size, chunk):
                part = rows[first : first + chunk]
                gravity[block[first : first + chunk]] = gravity_sums(degrees, part, part > 0)
        for array in (distance, gravity):
            array.setflags(write=False)
        return HopSums(distance, gravity)

    def neighbors(self, i: int) -> np.ndarray:
        self.check_node(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def check_node(self, i: int) -> None:
        # one integer: a bool, float, string or sequence is not a node
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"node index must be an integer, got {i!r}")
        _node_indices([i], self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, ordered by (u, v)."""
        upper = self.edge_sources < self.indices
        return zip(self.edge_sources[upper].tolist(), self.indices[upper].tolist())


def _node_indices(values: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """``values`` as an integer array of nodes of an n-node graph.

    Refuses a bool, float or string entry, which numpy would cast to some
    node or fail on, and an entry outside [0, n), which indexing would wrap
    or fail on. An empty sequence is a valid empty array.
    """
    nodes = np.asarray(values)
    if nodes.size and nodes.dtype.kind not in "iu":
        raise ValueError(f"node indices must be integers, got dtype {nodes.dtype}")
    if nodes.size and not 0 <= nodes.min() <= nodes.max() < n:
        raise ValueError(f"nodes must be in [0, {n}), got range [{nodes.min()}, {nodes.max()}]")
    return nodes.astype(np.intp, copy=False)


def _node_order(order: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """``order`` as a 1-d integer array of distinct nodes of an n-node graph.

    Counts by ``np.bincount``: ``np.unique`` imports ``numpy.ma`` on first use.
    """
    if np.ndim(order) != 1:
        raise ValueError(f"a node order must be 1-d, got shape {np.shape(order)}")
    nodes = _node_indices(order, n)
    repeated = np.flatnonzero(np.bincount(nodes) > 1)
    if repeated.size:
        raise ValueError(f"a node order names node {repeated[0]} more than once")
    return nodes


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


def _adjacency_slots(offsets: np.ndarray, nodes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Slots of every neighbor of the non-empty ``nodes`` in an adjacency
    array whose node i starts at ``offsets[i]``, such as ``graph.indptr``.

    ``counts`` holds each node's number of slots, ``graph.degrees.take(nodes)``
    for ``graph.indptr``, which the sweeps keep for their own repeats. The
    slots come node by node in the order of ``nodes``, each node's in
    ascending order, as a loop over ``nodes`` would visit them.
    """
    ends = counts.cumsum()
    return (offsets.take(nodes) - (ends - counts)).repeat(counts) + np.arange(ends[-1])


# Adjacency slots that one block of the per-source sweeps spans: a block of
# B sources runs on B copies of the graph, so B * 2m slots in all. Hop
# rows, wedges and Kendall tau rows are chunked by the same budget.
_SLOT_BUDGET = 1 << 15


class _Union(NamedTuple):
    """Disjoint copies of a graph, copy r on the nodes r*n ... r*n + n - 1,
    with the adjacency arrays and degrees that the sweeps read."""

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray


def _source_blocks(
    graph: Graph, sources: np.ndarray
) -> tuple[_Union, list[tuple[np.ndarray, np.ndarray]]]:
    """Split ``sources`` into blocks for the Brandes and effective-distance
    sweeps, and build the disjoint union that every block runs on.

    Returns the union and one ``(block, starts)`` pair per block, in order:
    ``block`` is a slice of ``sources`` and ``starts[r]`` is ``block[r]``'s
    node in copy r. The last block may be shorter and leave copies unused.

    A block of B sources starts its sweep from source r of the block in
    copy r of a B-fold union, so one numpy call per BFS level or
    label-correction round serves all B. Copies share no edge, so each one
    sees exactly the sweep its source would see alone. B is as large as
    the slot budget allows with at least one source per block; the
    union's node arrays hold B * n entries, so nothing is n x n.
    """
    n, count = graph.n, len(sources)
    copies = max(1, min(count, _SLOT_BUDGET // max(2 * graph.m, n, 1)))
    _raise_heap_thresholds()
    copy = np.arange(copies, dtype=np.int64)[:, None]
    slots = graph.indices.size
    union = _Union(
        indptr=np.append((graph.indptr[:-1] + copy * slots).ravel(), copies * slots),
        indices=(graph.indices + copy * n).ravel(),
        degrees=np.tile(graph.degrees, copies),
    )
    starts = copy[:, 0] * n
    blocks = [sources[first : first + copies] for first in range(0, count, copies)]
    return union, [(block, starts[: block.size] + block) for block in blocks]


def _raise_heap_thresholds() -> None:
    """Allocate and drop an untouched array of 32 bytes per budget slot (1 MiB).

    When glibc frees a chunk it had to mmap, it raises its dynamic mmap and
    trim thresholds to that size (mallopt(3), M_MMAP_THRESHOLD), so a
    sweep's per-level arrays, up to 256 KB each at the budget, come from
    and go back to the heap instead of being mapped, faulted in and
    unmapped level after level. Its pages are never written, so it adds no
    RSS; other allocators ignore it.
    """
    np.empty(32 * _SLOT_BUDGET, dtype=np.uint8)


# Sources per bit-parallel hop search: one bit of a uint64 word each.
_BLOCK = np.iinfo(np.uint64).bits


def _hop_levels(graph: Graph, sources: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels of one bit-parallel search from up to ``_BLOCK`` distinct
    ``sources``: per level 1, 2, ... in order, the nodes that level first
    reaches from some source, and each such node's word of new bits.

    Each node keeps one uint64 word whose bit i says that source i has
    reached it. A level pulls every node's word from the frontier words of
    its neighbors, so it costs O(m) for the whole block; the bits not seen
    before are that level's, and the search stops when a level adds none.
    Working memory is O(m + n).
    """
    n = graph.n
    # reduceat gives an empty segment the next element, so only nodes with
    # neighbors take part in the pull
    has_edges = np.flatnonzero(graph.degrees)
    starts = graph.indptr[has_edges]
    visited = np.zeros(n, dtype=np.uint64)
    visited[sources] = np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64))
    frontier = visited.copy()
    while True:
        reached = np.zeros(n, dtype=np.uint64)
        reached[has_edges] = np.bitwise_or.reduceat(frontier[graph.indices], starts)
        frontier = reached & ~visited
        hit = np.flatnonzero(frontier)
        if not hit.size:
            return
        visited |= frontier
        yield hit, frontier[hit]


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """``(len(words), count)`` uint8 table of the lowest ``count`` bits of each
    word, or of each row of words (bit i of a row is bit i % 64 of word i // 64).
    """
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(len(words), -1)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little")


def hop_distances(graph: Graph, source: int) -> np.ndarray:
    """Breadth-first hop counts from ``source`` as int64, 0 at ``source``;
    UNREACHABLE where no path exists.

    This is the one-source search of :func:`_hop_levels`, which the
    all-pairs hop pass (:attr:`Graph.hop_sums`) runs 64 sources at a time:
    each level's number goes into the nodes it first reaches. It is the
    only writer of UNREACHABLE.
    """
    graph.check_node(source)
    row = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    row[source] = 0
    for level, (hit, _) in enumerate(_hop_levels(graph, np.array([source])), start=1):
        row[hit] = level
    return row


def gravity_sums(degrees: np.ndarray, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row i, the sum of degrees[j] / rows[i, j]^2 over the targets j
    that ``mask[i]`` selects; 0.0 for a row that selects none.

    Each sum is bit for bit ``np.sum`` of the row's terms in target order.
    Rows that select the same number of targets are reduced together as
    one C-ordered 2-D array: numpy sums each of its rows as it sums one
    row alone (pairwise), so a block of rows costs a few calls per target
    count, not per row. ``np.add.reduceat`` rounds differently from
    ``np.sum``, so it cannot serve. Integer distances are squared
    in float64, which rounds d^2 once, as converting an exact int64 square
    to float64 does.
    """
    counts = np.count_nonzero(mask, axis=1)
    terms = np.square(rows[mask], dtype=np.float64)
    np.divide(np.broadcast_to(degrees, mask.shape)[mask], terms, out=terms)
    sums = np.zeros(counts.size, dtype=np.float64)
    for count in set(counts.tolist()) - {0}:
        group = counts == count
        # the terms of this group's rows, row by row; no copy when it is all
        group_terms = terms if group.all() else terms[group.repeat(counts)]
        sums[group] = group_terms.reshape(-1, count).sum(axis=1)
    return sums


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
    """Node/edge counts, mean degree and distance, clustering, assortativity.

    Runs its own all-pairs hop pass and keeps only the two totals it
    reads: it neither reads nor fills ``graph.hop_sums``, whose per-node
    arrays and gravity sums it has no use for. Each level of the search
    (see :func:`_hop_levels`) adds its count of first-reached (source,
    target) pairs, the population count of its new-bit words, so no
    per-source table is built.
    """
    n = graph.n
    if n == 0:
        raise ValueError("topology statistics are undefined for an empty graph")
    m = graph.m
    # Python ints: numpy integers would make the ratios below np.float64
    total_distance = reachable_pairs = 0
    for start in range(0, n, _BLOCK):
        sources = np.arange(start, min(start + _BLOCK, n))
        for level, (_, words) in enumerate(_hop_levels(graph, sources), start=1):
            found = int(np.bitwise_count(words).sum())
            reachable_pairs += found
            total_distance += level * found
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
    """Mean over nodes of (closed neighbor pairs / all neighbor pairs); 0 below degree 2.

    A node's closed neighbor pairs are the triangles through it. Each edge
    points from its lower to its higher (degree, index) end, so a triangle
    u < v < w in that order is found once, as the wedge u -> v -> w that the
    edge u -> w closes, and no node has more than about sqrt(2m) out-edges
    (Chiba & Nishizeki, SIAM J. Comput. 14(1), 1985). The wedges are checked
    against the sorted keys of the pointed edges, about ``_SLOT_BUDGET`` at
    a time. The ratios are added one after the other in node order, as a
    loop over the nodes adds them.
    """
    n = graph.n
    degrees = graph.degrees
    order = degrees * n + np.arange(n)
    up = order.take(graph.edge_sources) < order.take(graph.indices)
    heads = graph.edge_sources[up]
    tails = graph.indices[up]
    # the slots run by source and then target, so the keys come sorted
    keys = heads * n + tails
    out = np.bincount(heads, minlength=n)
    first = out.cumsum() - out
    # per pointed edge u -> v, its wedges u -> v -> w, one per out-edge of v
    wedges = out.take(tails)
    # chunks of pointed edges, cut each time another _SLOT_BUDGET wedges end
    budgets = np.arange(_SLOT_BUDGET, wedges.sum(), _SLOT_BUDGET)
    cuts = wedges.cumsum().searchsorted(budgets).tolist()
    closed = np.zeros(n, dtype=np.int64)
    for a, b in zip([0, *cuts], [*cuts, tails.size]):
        if a == b:  # a graph with no edges has one empty chunk
            continue
        count, middle = wedges[a:b], tails[a:b]
        # each wedge's out-slot v -> w, wedge by wedge in edge order
        near, far = heads[a:b].repeat(count), tails.take(_adjacency_slots(first, middle, count))
        query = near * n + far
        found = keys.take(keys.searchsorted(query), mode="clip") == query
        corners = (near[found], middle.repeat(count)[found], far[found])
        closed += np.bincount(np.concatenate(corners), minlength=n)
    ratios = np.divide(closed, degrees * (degrees - 1) / 2, out=np.zeros(n), where=degrees > 1)
    return float(ratios.cumsum()[-1]) / n


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
