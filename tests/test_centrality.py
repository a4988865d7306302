import numpy as np
import pytest

import effgravity.centrality
from effgravity import (
    ConvergenceError,
    Graph,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    compute_scores,
    degree_centrality,
    effective_distance_matrix,
    effg_centrality,
    eigenvector_centrality,
    gravity_centrality,
    pagerank,
    parse_edge_list,
    rank,
    topology_stats,
)
from conftest import SEVEN_NODE_DEGREES, SEVEN_NODE_EFFG
from helpers import (
    ba_graph_with_leaves,
    betweenness_bruteforce,
    closeness_per_source,
    cycle_symmetries,
    gravity_over_rows,
    gravity_per_source,
    grid_graph,
    grid_reflections,
    hop_row_blocks,
    is_automorphism,
    oracle_graphs,
    random_graph,
    twin_groups,
)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# --- degree ---------------------------------------------------------------

def test_degree_centrality_seven_node(seven_node_graph):
    assert tuple(degree_centrality(seven_node_graph).scores) == SEVEN_NODE_DEGREES


def test_degree_centrality_edgeless_graph():
    graph, _ = parse_edge_list("1 1\n2 2\n")
    assert np.all(degree_centrality(graph).scores == 0.0)


def test_degree_centrality_complete():
    assert np.all(degree_centrality(complete_graph(5)).scores == 4.0)


# --- betweenness ----------------------------------------------------------

def test_betweenness_star_center():
    scores = betweenness_centrality(star_graph(6)).scores
    assert scores[0] == pytest.approx(15.0)  # all 15 leaf pairs route through it
    assert np.all(scores[1:] == 0.0)


def test_betweenness_three_node_path():
    scores = betweenness_centrality(path_graph(3)).scores
    assert list(scores) == [0.0, 1.0, 0.0]


def test_betweenness_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(50):
        graph = random_graph(rng, int(rng.integers(2, 9)), 0.35)
        got = betweenness_centrality(graph).scores
        want = betweenness_bruteforce(graph)
        assert np.allclose(got, want, atol=1e-9)


def test_betweenness_disconnected_pairs_contribute_nothing():
    graph, _ = parse_edge_list("a b\nb c\nx y\n")
    scores = betweenness_centrality(graph).scores
    assert scores[1] == pytest.approx(1.0)
    assert np.all(scores[[0, 2, 3, 4]] == 0.0)


# --- closeness ------------------------------------------------------------

def test_closeness_seven_node(seven_node_graph):
    scores = closeness_centrality(seven_node_graph).scores
    assert scores[1] == pytest.approx(0.1)  # hop row sums to 10
    assert scores[0] == pytest.approx(1 / 6)  # adjacent to all others


def test_closeness_isolated_node_scores_zero():
    graph, _ = parse_edge_list("1 1\n2 3\n")
    assert closeness_centrality(graph).scores[0] == 0.0


# --- eigenvector ----------------------------------------------------------

def test_eigenvector_complete_graph():
    sv = eigenvector_centrality(complete_graph(4))
    assert np.allclose(sv.scores, 0.5, atol=1e-8)
    assert sv.metadata["eigenvalue"] == pytest.approx(3.0, abs=1e-8)


def test_eigenvector_star_center_leaf_ratio():
    sv = eigenvector_centrality(star_graph(4))
    assert sv.scores[0] / sv.scores[1] == pytest.approx(2.0, abs=1e-6)
    assert sv.metadata["eigenvalue"] == pytest.approx(2.0, abs=1e-8)


def test_eigenvector_residual_contract(seven_node_graph):
    sv = eigenvector_centrality(seven_node_graph)
    assert sv.metadata["residual"] <= effgravity.centrality.DEFAULT_TOL
    assert np.linalg.norm(sv.scores) == pytest.approx(1.0)
    assert np.all(sv.scores >= 0.0)


def test_eigenvector_non_convergence_error():
    # a 299-node path is still far from the tolerance at the iteration cap
    path = Graph.from_edges(299, [(i, i + 1) for i in range(298)])
    with pytest.raises(ConvergenceError, match=r"after 1000 iterations \(last residual "):
        eigenvector_centrality(path)


def test_eigenvector_non_convergence_names_the_workaround():
    # the gap between a path's two largest eigenvalues shrinks like 1/n^2,
    # so 1000 power iterations leave a 299-node path far from tol
    path = Graph.from_edges(299, [(i, i + 1) for i in range(298)])
    with pytest.raises(ConvergenceError, match="leave ec out of --measures"):
        eigenvector_centrality(path)


def test_eigenvector_requires_an_edge():
    graph, _ = parse_edge_list("1 1\n")
    with pytest.raises(ValueError):
        eigenvector_centrality(graph)


# --- pagerank ---------------------------------------------------------------

def test_pagerank_cycle_uniform():
    graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    sv = pagerank(graph)
    assert np.allclose(sv.scores, 1 / 3, atol=1e-9)


def test_pagerank_stationary_proportional_to_degree(seven_node_graph):
    sv = pagerank(seven_node_graph)
    expected = np.asarray(SEVEN_NODE_DEGREES) / 20.0
    assert np.allclose(sv.scores, expected, atol=1e-8)
    assert sv.scores[0] == pytest.approx(0.3, abs=1e-8)


def test_pagerank_bipartite_oscillation_raises():
    # a three-node path started from the uniform vector flips between two
    # states forever at damping 1.0
    with pytest.raises(ConvergenceError, match="damping"):
        pagerank(path_graph(3))


def test_pagerank_damping_restores_convergence():
    sv = pagerank(path_graph(3), damping=0.85)
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, float("nan")])
def test_pagerank_rejects_damping_outside_zero_to_one(damping):
    with pytest.raises(ValueError, match=r"damping must be in \(0, 1\]"):
        pagerank(path_graph(3), damping=damping)


def test_pagerank_edgeless_graph_scores_zero_without_iterating():
    sv = pagerank(Graph.from_edges(3, []))
    assert sv.scores.tolist() == [0.0, 0.0, 0.0]
    assert sv.metadata == {"iterations": 0, "delta": 0.0}


def test_pagerank_two_node_path_uniform_start_is_stationary():
    # both nodes have degree 1, so the uniform start is already the fixed
    # point and the bipartite oscillation never shows up
    sv = pagerank(path_graph(2))
    assert np.allclose(sv.scores, 0.5)
    assert sv.metadata["iterations"] == 1


def test_pagerank_isolated_nodes_excluded():
    graph, _ = parse_edge_list("1 1\n2 3\n")
    sv = pagerank(graph)
    assert sv.scores[0] == 0.0
    assert sv.scores[1] == pytest.approx(0.5)


def test_pagerank_termination_contract(seven_node_graph):
    sv = pagerank(seven_node_graph)
    assert sv.metadata["delta"] <= effgravity.centrality.DEFAULT_TOL


# --- gravity ----------------------------------------------------------------

def test_gravity_seven_node_leaf(seven_node_graph):
    scores = gravity_centrality(seven_node_graph).scores
    # leaf: hub at hop 1 contributes 6, the five others sit at hop 2
    assert scores[6] == pytest.approx(1 * 6 / 1 + (2 + 2 + 3 + 4 + 2) / 4)


def test_gravity_isolated_nodes_score_zero():
    graph, _ = parse_edge_list("1 1\n2 2\n")
    assert np.all(gravity_centrality(graph).scores == 0.0)


def test_gravity_two_node_path():
    assert np.allclose(gravity_centrality(path_graph(2)).scores, 1.0)


# --- gravity over effective distance ----------------------------------------

def test_effg_seven_node_scores(seven_node_graph):
    scores = effg_centrality(seven_node_graph).scores
    matrix = effective_distance_matrix(seven_node_graph)
    assert np.array_equal(scores, gravity_over_rows(seven_node_graph, matrix))
    for got, want in zip(scores, SEVEN_NODE_EFFG):
        assert got == pytest.approx(want, abs=1e-3)


def test_effg_worked_sum_for_node_2(seven_node_graph):
    matrix = effective_distance_matrix(seven_node_graph)
    score = effg_centrality(seven_node_graph).scores[1]
    assert score == gravity_over_rows(seven_node_graph, matrix)[1]
    assert score == pytest.approx(5.9104, abs=1e-3)


def test_effg_isolated_node_scores_zero():
    graph, _ = parse_edge_list("1 1\n2 3\n")
    scores = effg_centrality(graph).scores
    assert np.array_equal(scores, gravity_over_rows(graph, effective_distance_matrix(graph)))
    assert scores[0] == 0.0


def test_closeness_and_gravity_match_per_source_oracles():
    for graph in oracle_graphs(seed=1):
        assert np.array_equal(closeness_centrality(graph).scores, closeness_per_source(graph))
        assert np.array_equal(gravity_centrality(graph).scores, gravity_per_source(graph))


def test_streamed_effg_matches_matrix_path():
    for graph in oracle_graphs(seed=2):
        streamed = effg_centrality(graph).scores
        assert np.array_equal(streamed, gravity_over_rows(graph, effective_distance_matrix(graph)))


def test_cc_and_gm_share_one_hop_pass_and_stats_runs_its_own(monkeypatch):
    import effgravity.graph

    # 130 nodes take three blocks of the bit-parallel search: 64, 64 and 2
    graph = random_graph(np.random.default_rng(4), 130, 0.03)
    searches = []
    original_levels = effgravity.graph._hop_levels

    def counted_levels(graph, sources):
        searches.append(sources.tolist())
        return original_levels(graph, sources)

    monkeypatch.setattr(effgravity.graph, "_hop_levels", counted_levels)
    # stats counts each level's pairs straight from its own search, and it
    # neither fills the cache nor reads it
    topology_stats(graph)
    assert [len(block) for block in searches] == [64, 64, 2]
    assert sorted(s for block in searches for s in block) == list(range(graph.n))
    assert "hop_sums" not in vars(graph)
    # cc and gm share one pass over the same blocks, which fills the cache
    compute_scores(graph, ["cc", "gm"])
    assert searches[3:] == searches[:3]
    assert "hop_sums" in vars(graph)
    # with the sums cached, neither measure searches again
    compute_scores(graph, ["cc", "gm"])
    assert len(searches) == 6


def test_effg_with_hop_distances_reduces_to_gravity(monkeypatch):
    import effgravity.effective_distance

    monkeypatch.setattr(effgravity.effective_distance, "_effective_rows", hop_row_blocks)
    rng = np.random.default_rng(41)
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(2, 25)), 0.2)
        substituted = effg_centrality(graph).scores
        reference = gravity_centrality(graph).scores
        assert np.allclose(substituted, reference, atol=1e-12, rtol=0.0)


# --- ranking ----------------------------------------------------------------

def test_rank_on_reference_score_list():
    # the published score list, erroneous leaf entry (1.0115) included, used
    # only as a ranking input with a tie: the two equal scores keep index order
    scores = ScoreVector(
        "effg", np.array([6.5358, 5.9104, 5.9104, 6.0704, 6.2865, 5.5981, 1.0115])
    )
    order = rank(scores)
    assert list(order) == [0, 4, 3, 1, 2, 5, 6]
    # node i has rank (its position in the order) + 1
    assert [list(order).index(i) + 1 for i in range(7)] == [1, 4, 5, 3, 2, 6, 7]


def test_rank_all_equal_scores_identity_order():
    order = rank(ScoreVector("dc", np.full(5, 2.0)))
    assert list(order) == [0, 1, 2, 3, 4]


def test_rank_deterministic_across_runs(seven_node_graph):
    a = rank(gravity_centrality(seven_node_graph))
    b = rank(gravity_centrality(seven_node_graph))
    assert a.tobytes() == b.tobytes()


def test_rank_top_k(seven_node_graph):
    order = rank(degree_centrality(seven_node_graph))
    assert list(order[:2]) == [0, 4]
    # the order is every node once, as read-only int64
    assert sorted(order) == list(range(7))
    assert order.dtype == np.int64
    assert not order.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        order[0] = 1


def test_scorevector_rejects_non_finite():
    with pytest.raises(ValueError):
        ScoreVector("dc", np.array([1.0, np.inf]))


# --- cross-cutting ----------------------------------------------------------

def test_relabeling_invariance():
    rng = np.random.default_rng(97)
    graph = random_graph(rng, 12, 0.3)
    perm = rng.permutation(12)
    remapped = Graph.from_edges(
        12, [(int(perm[u]), int(perm[v])) for u, v in graph.edges()]
    )
    for measure in (degree_centrality, closeness_centrality, betweenness_centrality,
                    gravity_centrality):
        original = measure(graph).scores
        shuffled = measure(remapped).scores
        assert np.allclose(original, shuffled[perm], atol=1e-9)


def test_eigenvector_relabeling_invariance(seven_node_graph):
    rng = np.random.default_rng(3)
    perm = rng.permutation(7)
    remapped = Graph.from_edges(
        7, [(int(perm[u]), int(perm[v])) for u, v in seven_node_graph.edges()]
    )
    original = eigenvector_centrality(seven_node_graph).scores
    shuffled = eigenvector_centrality(remapped).scores
    assert np.allclose(original, shuffled[perm], atol=1e-7)


def same_bytes(scores: np.ndarray, other: np.ndarray) -> bool:
    return np.array_equal(scores.view(np.uint64), other.view(np.uint64))


def test_symmetric_nodes_score_byte_equal():
    # gm and effg can split symmetric nodes by their summation order, so
    # they are left out here
    measures = ["dc", "cc", "bc", "ec", "pagerank"]
    for n in (12, 13, 200):
        graph = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        scores = compute_scores(graph, measures, damping=0.85)
        for perm in cycle_symmetries(n):
            assert is_automorphism(graph, perm)
            for name in measures:
                values = scores[name].scores
                assert same_bytes(values[perm], values), (n, name, perm[:3])
    for seed in range(3):
        tree = ba_graph_with_leaves(np.random.default_rng(seed), 300, 1, 0)
        groups = twin_groups(tree)
        assert groups
        scores = compute_scores(tree, measures, damping=0.85)
        for name in measures:
            values = scores[name].scores
            for group in groups:
                assert same_bytes(values[group], np.full(len(group), values[group[0]])), (
                    seed, name, group,
                )
    grid = grid_graph(10, 12)
    scores = compute_scores(grid, ["dc", "cc"])
    for perm in grid_reflections(10, 12):
        assert is_automorphism(grid, perm)
        for name in ("dc", "cc"):
            values = scores[name].scores
            assert same_bytes(values[perm], values), name


def test_compute_scores_orchestration(seven_node_graph):
    scores = compute_scores(seven_node_graph, ["dc", "effg", "gm"])
    assert list(scores) == ["dc", "effg", "gm"]
    assert scores["effg"].scores[1] == pytest.approx(5.9104, abs=1e-3)


def test_compute_scores_unknown_measure(seven_node_graph):
    with pytest.raises(ValueError, match="unknown measures"):
        compute_scores(seven_node_graph, ["dc", "nope"])
