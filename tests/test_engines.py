"""The three sweeps (the hop BFS, which runs 64 sources at a time, and the
effective-distance label correction and Brandes betweenness, which run a
block of sources sized by a slot budget) against the node-at-a-time loops in
``tests/helpers.py``, against networkx, and against properties of the
effective distance itself; the measures and topology statistics built on
them are also checked against networkx.

The loop oracles do the same float operations in the same order, so their
results must agree byte for byte; networkx sums in its own order, so it is
compared with a tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effgravity import (
    UNREACHABLE,
    Graph,
    betweenness_centrality,
    closeness_centrality,
    effective_distance_matrix,
    effg_centrality,
    eigenvector_centrality,
    gravity_centrality,
    hop_distances,
    pagerank,
    topology_stats,
)
from effgravity.centrality import _NOT_SEEN, _first_occurrences
from effgravity.effective_distance import _effective_rows
from effgravity.graph import (
    _BLOCK,
    _adjacency_slots,
    _average_clustering,
    _source_blocks,
    gravity_sums,
)
from helpers import (
    average_clustering_by_sets,
    ba_graph_with_leaves,
    betweenness_by_stack,
    effective_distances_by_heap,
    engine_graphs,
    gravity_over_rows,
    gravity_sums_by_row,
    grid_graph,
    hop_distance_totals_per_source,
    hop_distances_by_queue,
    random_graph,
)

GRAPHS = engine_graphs()
GRAPH_IDS = [f"graph{i}-n{g.n}-m{g.m}" for i, g in enumerate(GRAPHS)]


def assert_sweeps_match_oracles(graph: Graph) -> None:
    heap_rows = [effective_distances_by_heap(graph, s) for s in range(graph.n)]
    for s in range(graph.n):
        assert hop_distances(graph, s).tobytes() == hop_distances_by_queue(graph, s).tobytes()
        # a block of one source, where the matrix runs blocks of many
        ((_, rows),) = _effective_rows(graph, np.array([s]))
        assert rows.tobytes() == heap_rows[s].tobytes()
    if graph.n:
        assert effective_distance_matrix(graph).tobytes() == np.stack(heap_rows).tobytes()
    assert betweenness_centrality(graph).scores.tobytes() == betweenness_by_stack(graph).tobytes()


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_sweeps_match_node_at_a_time_oracles(graph):
    assert_sweeps_match_oracles(graph)


def test_adjacency_slots_follow_the_given_node_order():
    graph = Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (3, 4), (2, 4)])
    nodes = np.array([3, 0, 4, 3])
    want = np.concatenate([np.arange(graph.indptr[u], graph.indptr[u + 1]) for u in nodes])
    assert np.array_equal(_adjacency_slots(graph.indptr, nodes, graph.degrees.take(nodes)), want)


def test_first_occurrences_keep_appearance_order_and_restore_scratch():
    first_seen = np.full(6, _NOT_SEEN)
    values = np.array([4, 1, 4, 0, 1, 5, 0])
    assert _first_occurrences(values, first_seen).tolist() == [4, 1, 0, 5]
    assert np.all(first_seen == _NOT_SEEN)
    assert _first_occurrences(np.array([5, 4, 5]), first_seen).tolist() == [5, 4]


@st.composite
def graphs(draw, max_nodes: int = 10):
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_sweeps_match_oracles_on_random_graphs(graph):
    assert_sweeps_match_oracles(graph)


# --- Brandes and the effective distances across blocks of sources -----------

@functools.cache
def block_oracles(index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Betweenness, effective-distance rows and effg of ``GRAPHS[index]``
    from the node-at-a-time loops, computed once for every block size."""
    graph = GRAPHS[index]
    rows = np.array([effective_distances_by_heap(graph, s) for s in range(graph.n)])
    return betweenness_by_stack(graph), rows, gravity_over_rows(graph, rows)


@pytest.mark.parametrize("copies", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("index", range(len(GRAPHS)), ids=GRAPH_IDS)
def test_source_blocks_of_any_size_match_oracles(index, copies, monkeypatch):
    import effgravity.graph

    graph = GRAPHS[index]
    # a budget of exactly ``copies`` unions, so blocks hold that many
    # sources (all of them when there are fewer), the last one maybe fewer
    budget = copies * max(2 * graph.m, graph.n, 1)
    monkeypatch.setattr(effgravity.graph, "_SLOT_BUDGET", budget)
    union, blocks = _source_blocks(graph, np.arange(graph.n))
    size = min(copies, graph.n)
    assert union.degrees.size == size * graph.n
    assert [block.size for block, _ in blocks] == [
        min(size, graph.n - first) for first in range(0, graph.n, size)
    ]
    bc, rows, effg = block_oracles(index)
    assert betweenness_centrality(graph).scores.tobytes() == bc.tobytes()
    assert effg_centrality(graph).scores.tobytes() == effg.tobytes()
    assert effective_distance_matrix(graph).tobytes() == rows.tobytes()


def record_label_correction(monkeypatch) -> list[tuple[np.ndarray, list]]:
    """Patch the label correction so that it records its rounds.

    Returns a list that fills with one ``(labels, rounds)`` pair per block,
    ``rounds`` holding per round its kind and the nodes it lowered: "A" for a round that relaxes every
    slot of the union, "D" for a dense round (it snapshots the labels, but
    expands only the dropped nodes' slots) and "s" for a small one. Each
    round makes exactly one ``np.minimum.at`` call, and the lowered nodes
    are read from the labels on either side of it.
    """
    import effgravity.effective_distance as ed

    unions = []
    blocks = []
    snapshots = []

    def recording_blocks(graph, sources):
        union, pairs = _source_blocks(graph, sources)
        unions.append(union)
        return union, pairs

    class RecordingMinimum:
        def at(self, dist, targets, candidates):
            if not blocks or blocks[-1][0] is not dist:
                blocks.append((dist, []))
            if targets is unions[-1].indices:
                kind = "A"
            else:
                kind = "D" if snapshots else "s"
            snapshots.clear()
            before = dist.copy()
            np.minimum.at(dist, targets, candidates)
            blocks[-1][1].append((kind, np.flatnonzero(dist < before)))

    class RecordingNumpy:
        minimum = RecordingMinimum()

        def __getattr__(self, name):
            return getattr(np, name)

        def copyto(self, dst, src):
            snapshots.append(True)
            np.copyto(dst, src)

    monkeypatch.setattr(ed, "_source_blocks", recording_blocks)
    monkeypatch.setattr(ed, "np", RecordingNumpy())
    return blocks


def round_kinds(blocks) -> list[str]:
    return ["".join(kind for kind, _ in rounds) for _, rounds in blocks]


def test_label_correction_mixing_dense_and_small_rounds_matches_heap(monkeypatch):
    """A round relaxes every slot once a third of the block's B * n labels
    dropped in the round before; otherwise it is dense when it expands at
    least as many slots as there are labels, and small below that. On this
    20-node graph (16 preferential-attachment nodes with 2 links each and
    4 pendant leaves) at B = 8 the three blocks run, round by round (s
    small, D dense, A all slots):

    - sources 0-7: sDAss, a small first round from the 8 sources, a dense
      round through the hubs, which lowers 81 of the 160 labels, so the
      third round relaxes every slot, then two small rounds of the last
      corrections;
    - sources 8-15: ssAsss, where the second round lowers 67 labels, so
      the third relaxes every slot;
    - sources 16-19: ssssss, all small, as these 4 sources leave half of
      the union's 8 copies unused.

    The matrix must equal the heap Dijkstra's byte for byte.
    """
    import effgravity.graph

    graph = ba_graph_with_leaves(np.random.default_rng(0), 16, 2, 4)
    monkeypatch.setattr(effgravity.graph, "_SLOT_BUDGET", 8 * max(2 * graph.m, graph.n))
    blocks = record_label_correction(monkeypatch)
    want = np.stack([effective_distances_by_heap(graph, s) for s in range(graph.n)])
    assert effective_distance_matrix(graph).tobytes() == want.tobytes()
    assert round_kinds(blocks) == ["sDAss", "ssAsss", "ssssss"]
    assert [lowered.size for _, lowered in blocks[0][1]] == [38, 81, 30, 4, 0]


# graphs for the relax-all check, built on first use: zero-cost leaf edges,
# unreachable copies and isolated nodes, hundreds of tiny rounds, many tied
# labels, one hub, and a first round that lowers every label but the sources'
RELAX_ALL_GRAPHS = {
    "ba-with-leaves": lambda: ba_graph_with_leaves(np.random.default_rng(3), 60, 3, 15),
    "two-components-isolated": lambda: two_components_and_isolated_nodes(),
    "path-n700": lambda: path_graph(700),
    "grid-20x12": lambda: grid_graph(20, 12),
    "star-8": lambda: Graph.from_edges(9, [(0, i) for i in range(1, 9)]),
    "complete-9": lambda: Graph.from_edges(9, list(itertools.combinations(range(9), 2))),
}


@pytest.mark.parametrize("name", RELAX_ALL_GRAPHS)
def test_relaxing_every_slot_lowers_the_labels_the_dropped_nodes_lower(name, monkeypatch):
    """A label that did not drop in the round before has had its
    candidates applied already, so relaxing every slot lowers exactly what
    relaxing the dropped nodes' slots lowers. With the third-of-labels rule
    forced to every round and to none, every round of every block lowers
    the same nodes, and both sets of rows equal the heap Dijkstra's. On the
    path every seventh node is a source, which keeps its hundreds of
    all-slot rounds to about 100 sources."""
    import effgravity.effective_distance as ed

    graph = RELAX_ALL_GRAPHS[name]()
    sources = np.arange(0, graph.n, max(1, graph.n // 100))
    want = np.stack([effective_distances_by_heap(graph, s) for s in sources])
    lowered = {}
    for rule, factor in (("always", 2**40), ("never", 0)):
        monkeypatch.setattr(ed, "_RELAX_ALL_FACTOR", factor)
        blocks = record_label_correction(monkeypatch)
        rows = np.concatenate([rows for _, rows in ed._effective_rows(graph, sources)])
        assert rows.tobytes() == want.tobytes()
        kinds = set("".join(round_kinds(blocks)))
        if rule == "always":
            assert kinds == {"A"}
        else:
            assert "A" not in kinds
        lowered[rule] = [[nodes.tolist() for _, nodes in rounds] for _, rounds in blocks]
    assert lowered["always"] == lowered["never"]


@pytest.mark.parametrize("n", [6, 7, 10, 11, 1000])
def test_betweenness_of_a_cycle_has_a_closed_form(n):
    # each node's share of the shortest paths between other pairs sums to
    # (n - 2)^2 / 8 on an even cycle, where an antipodal pair's two paths
    # count half each, and to (n - 1)(n - 3) / 8 on an odd one; every term
    # is a multiple of 1/2, so the float sums are exact
    want = (n - 2) ** 2 / 8 if n % 2 == 0 else (n - 1) * (n - 3) / 8
    assert np.all(betweenness_centrality(cycle_graph(n)).scores == want)


@pytest.mark.parametrize("n", [2, 3, 60, 300])
def test_betweenness_of_a_path_has_a_closed_form(n):
    # node i lies inside the one shortest path of each of its i * (n - 1 - i)
    # pairs of a node before it and a node after it; Brandes walks back up
    # to n - 1 levels from each source
    i = np.arange(n)
    assert np.array_equal(betweenness_centrality(path_graph(n)).scores, i * (n - 1 - i))


# --- the bit-parallel hop search across blocks of 64 sources -----------------

def assert_hop_blocks_match_queue(graph: Graph) -> None:
    """Every one-source row and the hop sums of every block against the
    queue oracle; the sums repeat the library's float operations."""
    want = [hop_distances_by_queue(graph, s) for s in range(graph.n)]
    for s in range(graph.n):
        assert hop_distances(graph, s).tobytes() == want[s].tobytes()
    degrees = graph.degrees.astype(np.float64)
    sums = graph.hop_sums
    assert sums.distance.tobytes() == np.array([r[r > 0].sum() for r in want]).tobytes()
    gravity = gravity_sums_by_row(degrees, want, [r > 0 for r in want])
    assert sums.gravity.tobytes() == gravity.tobytes()


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_components_and_isolated_nodes() -> Graph:
    """130 nodes in three blocks: a 60-node path, a 50-node cycle and 20
    isolated nodes, with node ids shuffled so that each part spans blocks."""
    ids = np.random.default_rng(12).permutation(130).tolist()
    path = [(ids[i], ids[i + 1]) for i in range(59)]
    cycle = [(ids[60 + i], ids[60 + (i + 1) % 50]) for i in range(50)]
    return Graph.from_edges(130, path + cycle)


@pytest.mark.parametrize(
    "graph",
    [two_components_and_isolated_nodes(), Graph.from_edges(70, []), path_graph(700)],
    ids=["two-components-isolated-n130", "edgeless-n70", "path-n700"],
)
def test_hop_blocks_match_queue_oracle(graph):
    # the 700-node path has levels past 255, beyond a uint8 product
    assert_hop_blocks_match_queue(graph)


@st.composite
def sparse_graphs(draw, max_nodes: int = 150):
    n = draw(st.integers(1, max_nodes))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=n // 2, max_size=2 * n))
    return Graph.from_edges(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(sparse_graphs())
def test_hop_blocks_match_queue_oracle_on_random_graphs(graph):
    assert_hop_blocks_match_queue(graph)


def assert_stats_totals_match_queue(graph: Graph) -> None:
    """``topology_stats``' popcount totals against one queue BFS per source,
    and its two ratios as Python floats, as numpy integer totals would
    make them ``np.float64``."""
    total, reachable = hop_distance_totals_per_source(graph)
    ordered = graph.n * (graph.n - 1)
    stats = topology_stats(graph)
    assert type(stats.avg_distance) is float
    assert type(stats.unreachable_pair_fraction) is float
    assert stats.avg_distance == (total / reachable if reachable else 0.0)
    assert stats.unreachable_pair_fraction == (1.0 - reachable / ordered if ordered else 0.0)


@pytest.mark.parametrize(
    "graph",
    [
        two_components_and_isolated_nodes(),
        random_graph(np.random.default_rng(65), 65, 0.05),
        random_graph(np.random.default_rng(130), 130, 0.03),
        path_graph(299),
    ],
    ids=["two-components-isolated-n130", "random-n65", "random-n130", "path-n299"],
)
def test_stats_popcount_totals_match_queue_oracle(graph):
    # 65 and 130 nodes end in a partial block of 1 and 2 sources; the path
    # has 298 levels
    assert_stats_totals_match_queue(graph)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(sparse_graphs())
def test_stats_popcount_totals_match_queue_oracle_on_random_graphs(graph):
    assert_stats_totals_match_queue(graph)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 130, 300])
def test_hop_sums_of_a_path_have_closed_forms(n):
    # node i is |i - j| from node j, so its sum is i(i+1)/2 + (n-1-i)(n-i)/2,
    # and the ordered pairs add up to n(n^2 - 1)/3
    sums = path_graph(n).hop_sums
    i = np.arange(n)
    assert np.array_equal(sums.distance, i * (i + 1) // 2 + (n - 1 - i) * (n - i) // 2)
    assert int(sums.distance.sum()) == n * (n * n - 1) // 3


@pytest.mark.parametrize("n", [3, 4, 64, 129, 300, 301, 1000])
def test_hop_sums_of_a_cycle_have_closed_forms(n):
    # each node sees two peers at every distance below n/2, and one more at
    # n/2 when n is even: floor(n^2 / 4) in all, over n - 1 reachable peers.
    # topology_stats counts the same pairs in its own hop pass, 16 blocks of
    # a BFS with 500 levels at n = 1000, where the mean is 250.25025025025025
    cycle = cycle_graph(n)
    assert np.all(cycle.hop_sums.distance == n * n // 4)
    stats = topology_stats(cycle)
    assert stats.avg_distance == n * n // 4 / (n - 1)
    assert stats.unreachable_pair_fraction == 0.0


@pytest.mark.parametrize(
    "graph",
    [*GRAPHS, two_components_and_isolated_nodes()],
    ids=[*GRAPH_IDS, "two-components-isolated-n130"],
)
def test_topology_stats_hop_pass_skips_gravity_and_matches_hop_sums(graph, monkeypatch):
    """``topology_stats`` runs its own hop pass without gravity sums, and
    gives the record built from ``hop_sums``, whose sums are integers, and
    from one BFS per source, exactly, whether or not ``hop_sums`` is cached."""
    import effgravity.graph

    calls = []
    original = effgravity.graph.gravity_sums

    def counted(degrees, rows, mask):
        calls.append(len(rows))
        return original(degrees, rows, mask)

    monkeypatch.setattr(effgravity.graph, "gravity_sums", counted)
    fresh = Graph(indptr=graph.indptr, indices=graph.indices, labels=graph.labels)
    lean = topology_stats(fresh)
    assert calls == [] and "hop_sums" not in vars(fresh)
    sums = fresh.hop_sums
    assert sums.gravity is not None and sums.gravity.dtype == np.float64
    assert sum(calls) == graph.n
    assert topology_stats(fresh) == lean
    assert sum(calls) == graph.n

    total, pairs = hop_distance_totals_per_source(graph)
    assert int(sums.distance.sum()) == total
    ordered_pairs = graph.n * (graph.n - 1)
    want = (
        total / pairs if pairs else 0.0,
        1.0 - pairs / ordered_pairs if ordered_pairs else 0.0,
    )
    assert (lean.avg_distance, lean.unreachable_pair_fraction) == want
    # Python floats, so the record's repr and equality are those of floats
    assert [type(lean.avg_distance), type(lean.unreachable_pair_fraction)] == [float, float]


# --- the block gravity reducer ----------------------------------------------

def test_gravity_sums_group_rows_by_target_count():
    # int32 hop rows, as the hop search returns them, selecting 0, 2, 4, 2
    # and 0 targets: the two rows of count 2 are reduced together and the
    # rows of count 0 stay 0. A distance of 70000 squares past int32; the
    # oracle squares the int64 rows.
    degrees = np.array([1.0, 2.0, 3.0, 5.0, 7.0])
    rows = np.array([[0, -1, -1, -1, -1],
                     [1, 0, 2, -1, -1],
                     [3, 1, 0, 2, 70000],
                     [-1, -1, 1, 0, 3],
                     [-1, -1, -1, -1, 0]])
    sums = gravity_sums(degrees, rows.astype(np.int32), rows > 0)
    assert sums.tobytes() == gravity_sums_by_row(degrees, rows, rows > 0).tobytes()
    want = [0.0, 1 + 3 / 4, 1 / 9 + 2 + 5 / 4 + 7 / 70000**2, 3 + 7 / 9, 0.0]
    assert sums.tolist() == pytest.approx(want, rel=1e-15)


def test_gravity_sums_of_rows_longer_than_a_reduction_buffer():
    # numpy reduces in buffers of 8192 elements; rows past that must still
    # be summed, grouped or alone, as np.sum sums the row by itself. Rows 0
    # and 2 select 9000 targets each (one group, gathered from a mixed
    # block), rows 1 and 3 select 12000 and 20000; then a block of three
    # rows that all select 20000 is reduced without a gather.
    rng = np.random.default_rng(5)
    degrees = rng.random(20000) * 50
    rows = rng.random((4, 20000)) * 10 + 0.5
    mask = np.zeros(rows.shape, dtype=bool)
    for row, count in zip(mask, (9000, 12000, 9000, 20000)):
        row[rng.choice(20000, count, replace=False)] = True
    want = gravity_sums_by_row(degrees, rows, mask)
    assert gravity_sums(degrees, rows, mask).tobytes() == want.tobytes()
    every = np.ones((3, 20000), dtype=bool)
    want = gravity_sums_by_row(degrees, rows[:3], every)
    assert gravity_sums(degrees, rows[:3], every).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "graph",
    [*GRAPHS, two_components_and_isolated_nodes()],
    ids=[*GRAPH_IDS, "two-components-isolated-n130"],
)
def test_gravity_sums_match_row_by_row_oracle(graph, monkeypatch):
    """``Graph.hop_sums.gravity`` and ``effg_centrality`` against ``np.sum``
    one row at a time. The hop rows come 64 to a block, reduced all at
    once, 7 rows at a time (the last part of a block shorter) and one row
    at a time, and ``effg`` runs with B = 7 and with every source in one
    block, so reductions mix rows that select different numbers of
    targets: 0 for an isolated node, and one count per component size."""
    import effgravity.graph

    degrees = graph.degrees.astype(np.float64)
    hops = np.array([hop_distances_by_queue(graph, s) for s in range(graph.n)])
    want = gravity_sums_by_row(degrees, hops, hops > 0)
    for budget in (_BLOCK * graph.n, 7 * graph.n, 1):
        monkeypatch.setattr(effgravity.graph, "_SLOT_BUDGET", budget)
        fresh = Graph(indptr=graph.indptr, indices=graph.indices, labels=graph.labels)
        assert fresh.hop_sums.gravity.tobytes() == want.tobytes()
    rows = np.array([effective_distances_by_heap(graph, s) for s in range(graph.n)])
    want = degrees * gravity_sums_by_row(degrees, rows, np.isfinite(rows))
    for copies in (7, graph.n):
        budget = copies * max(2 * graph.m, graph.n, 1)
        monkeypatch.setattr(effgravity.graph, "_SLOT_BUDGET", budget)
        assert effg_centrality(graph).scores.tobytes() == want.tobytes()


def test_two_components_graph_mixes_target_counts_in_a_hop_block():
    # so the test above reduces rows of 0, 49 and 59 targets in one call
    graph = two_components_and_isolated_nodes()
    hops = np.array([hop_distances_by_queue(graph, s) for s in range(_BLOCK)])
    assert set(np.count_nonzero(hops > 0, axis=1).tolist()) == {0, 49, 59}


# --- networkx differentials -------------------------------------------------

def to_networkx(graph: Graph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.n))
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_hop_rows_match_networkx(graph):
    # networkx leaves unreachable targets out of its dict; the library marks
    # them UNREACHABLE. Both put the source at 0.
    nx_graph = to_networkx(graph)
    for s in range(graph.n):
        want = np.full(graph.n, UNREACHABLE, dtype=np.int64)
        for target, hops in nx.single_source_shortest_path_length(nx_graph, s).items():
            want[target] = hops
        assert np.array_equal(hop_distances(graph, s), want)


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_effective_rows_match_networkx_dijkstra(graph):
    # networkx returns the plain path cost on a DiGraph whose edge u -> v
    # weighs log2 deg(u), with 0 at the source and no entry for unreachable
    # targets. The library adds the constant 1 once per pair and reports inf
    # for the source itself and for unreachable targets.
    degrees = graph.degrees
    directed = nx.DiGraph()
    directed.add_nodes_from(range(graph.n))
    for u, v in graph.edges():
        directed.add_edge(u, v, weight=math.log2(degrees[u]))
        directed.add_edge(v, u, weight=math.log2(degrees[v]))
    matrix = effective_distance_matrix(graph)
    for s in range(graph.n):
        want = np.full(graph.n, np.inf)
        for target, cost in nx.single_source_dijkstra_path_length(directed, s).items():
            if target != s:
                want[target] = cost + 1.0
        np.testing.assert_allclose(matrix[s], want, rtol=1e-12)


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_betweenness_matches_networkx(graph):
    # normalized=False on an undirected networkx graph already counts each
    # unordered pair once, which is the library's halved convention.
    want = nx.betweenness_centrality(to_networkx(graph), normalized=False)
    want = np.array([want[i] for i in range(graph.n)])
    np.testing.assert_allclose(betweenness_centrality(graph).scores, want, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize(
    "graph",
    [pytest.param(g, id=gid) for g, gid in zip(GRAPHS, GRAPH_IDS) if g.degrees.min() > 0],
)
def test_pagerank_matches_networkx(graph):
    # Only graphs without isolated nodes: the library pins an isolated node
    # to 0 and leaves it out of the uniform start and the (1 - d)/n share,
    # while networkx treats it as a dangling node that spreads its mass over
    # every node, so their scores differ wherever one exists.
    want = nx.pagerank(to_networkx(graph), alpha=0.85, tol=1e-13, max_iter=1000)
    want = np.array([want[i] for i in range(graph.n)])
    np.testing.assert_allclose(pagerank(graph, damping=0.85).scores, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_closeness_matches_networkx(graph):
    # wf_improved=False gives networkx's (component size - 1) / summed
    # distance; the library leaves out the numerator, so it is networkx's
    # score divided by (component size - 1). Both score an isolated node 0.
    nx_graph = to_networkx(graph)
    want = nx.closeness_centrality(nx_graph, wf_improved=False)
    peers = {u: len(nx.node_connected_component(nx_graph, u)) - 1 for u in range(graph.n)}
    want = np.array([want[u] / peers[u] if peers[u] else 0.0 for u in range(graph.n)])
    np.testing.assert_allclose(closeness_centrality(graph).scores, want, rtol=1e-12)


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(g, id=gid)
        for g, gid in zip(GRAPHS, GRAPH_IDS)
        if g.m > 0 and nx.is_connected(to_networkx(g))
    ],
)
def test_eigenvector_matches_networkx(graph):
    # Connected graphs only: there the principal eigenvector is unique up to
    # sign, and both scale it to unit Euclidean length with positive entries.
    # On a disconnected graph the library's power iteration concentrates on
    # the component with the largest eigenvalue, which networkx need not.
    want = nx.eigenvector_centrality_numpy(to_networkx(graph))
    want = np.array([want[i] for i in range(graph.n)])
    np.testing.assert_allclose(eigenvector_centrality(graph).scores, want, rtol=1e-6)


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_average_clustering_matches_networkx(graph):
    # Both average over every node, counting nodes of degree below 2 as 0.
    want = nx.average_clustering(to_networkx(graph))
    assert topology_stats(graph).clustering == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("budget", [1, 3, 1 << 15])
@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_average_clustering_matches_set_oracle(graph, budget, monkeypatch):
    # a budget of 1 cuts after every wedge, and a pointed edge with several
    # wedges leaves empty chunks between its cuts. Graphs 5 and 6 are ones
    # where a pairwise sum of the ratios differs from the node-order sum
    import effgravity.graph

    monkeypatch.setattr(effgravity.graph, "_SLOT_BUDGET", budget)
    got = _average_clustering(graph)
    assert type(got) is float
    assert got.hex() == average_clustering_by_sets(graph).hex()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(graphs(max_nodes=14))
def test_average_clustering_matches_set_oracle_on_random_graphs(graph):
    assert _average_clustering(graph).hex() == average_clustering_by_sets(graph).hex()


def test_average_clustering_of_a_windmill_has_a_closed_form():
    # 500 triangles that share a hub, the last node: every leaf scores 1
    # and the hub, with 500 closed pairs of its 999 * 500, scores 1 / 999
    k = 500
    edges = [(2 * i, 2 * i + 1) for i in range(k)] + [(leaf, 2 * k) for leaf in range(2 * k)]
    windmill = Graph.from_edges(2 * k + 1, edges)
    want = (2 * k + 1 / (2 * k - 1)) / (2 * k + 1)
    assert _average_clustering(windmill) == want == average_clustering_by_sets(windmill)


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_degree_assortativity_matches_networkx(graph):
    # Where the endpoint degrees do not vary (no edges, or a regular graph)
    # networkx returns nan and the library None.
    with np.errstate(invalid="ignore"):
        want = nx.degree_assortativity_coefficient(to_networkx(graph))
    got = topology_stats(graph).assortativity
    if math.isnan(want):
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# --- effective-distance properties -------------------------------------------

@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_neighbor_distance_is_one_plus_log2_degree(graph):
    matrix = effective_distance_matrix(graph)
    leave_cost = [math.log2(max(degree, 1)) for degree in graph.degrees.tolist()]
    for u, v in graph.edges():
        assert matrix[u, v] == 1.0 + leave_cost[u]
        assert matrix[v, u] == 1.0 + leave_cost[v]


def test_star_step_weight_is_the_correctly_rounded_log2_of_its_degree():
    # 1621 is the smallest integer whose log2 numpy's AVX-512 path rounds
    # one bit away from the correctly rounded value that math.log2 gives
    leaves = 1621
    star = Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    ((_, centre_row),) = _effective_rows(star, np.array([0]))
    assert centre_row[0, 1] == 1.0 + math.log2(leaves)
    # every leaf's heap row is leaf 1's with the entries of the two leaves
    # swapped, as swapping them is an automorphism
    centre = effective_distances_by_heap(star, 0)
    leaf = effective_distances_by_heap(star, 1)
    rows = np.tile(leaf, (leaves + 1, 1))
    rows[0] = centre
    swapped = np.arange(2, leaves + 1)
    rows[swapped, swapped], rows[swapped, 1] = leaf[1], leaf[2]
    assert rows[leaves].tobytes() == effective_distances_by_heap(star, leaves).tobytes()
    assert effg_centrality(star).scores.tobytes() == gravity_over_rows(star, rows).tobytes()


@pytest.mark.parametrize(
    "name, want", [("star-8", [4.0] + [8.4375] * 8), ("complete-9", [32.0] * 9)]
)
def test_effg_of_a_star_and_a_complete_graph_have_closed_forms(name, want):
    # one step out of a node of degree 8 costs 1 + log2 8 = 4. A leaf of the
    # star is 1 from the centre and 4 from each other leaf: 8 / 1 + 7 / 4^2;
    # the centre is 4 from every leaf: 8 * 8 / 4^2. In K9 every peer is 4
    # away: 8 * 8 * 8 / 4^2, from one block of all 9 sources whose second
    # round relaxes every adjacency slot
    assert effg_centrality(RELAX_ALL_GRAPHS[name]()).scores.tolist() == want


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_effective_distance_triangle_inequality(graph):
    # D(u, w) <= D(u, v) + D(v, w) - 1 over distinct u, v, w: the walk via v
    # pays each leg's path cost, and the constant 1 only once.
    matrix = effective_distance_matrix(graph)
    for u, v, w in itertools.permutations(range(graph.n), 3):
        assert matrix[u, w] <= matrix[u, v] + matrix[v, w] - 1.0 + 1e-12


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_relabeling_permutes_distance_scores(data):
    graph = data.draw(graphs())
    perm = np.array(data.draw(st.permutations(range(graph.n))))
    relabeled = Graph.from_edges(graph.n, [(int(perm[u]), int(perm[v])) for u, v in graph.edges()])
    for measure in (betweenness_centrality, closeness_centrality, gravity_centrality,
                    effg_centrality):
        original = measure(graph).scores
        np.testing.assert_allclose(measure(relabeled).scores[perm], original,
                                   rtol=1e-12, atol=1e-12)
