import numpy as np
import pytest

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
    betweenness_bruteforce,
    closeness_per_source,
    gravity_over_rows,
    gravity_per_source,
    hop_row,
    oracle_graphs,
    random_graph,
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
    tol = 1e-10
    sv = eigenvector_centrality(seven_node_graph, tol=tol)
    assert sv.metadata["residual"] <= tol
    assert np.linalg.norm(sv.scores) == pytest.approx(1.0)
    assert np.all(sv.scores >= 0.0)


def test_eigenvector_non_convergence_error(seven_node_graph):
    with pytest.raises(ConvergenceError) as info:
        eigenvector_centrality(seven_node_graph, tol=1e-14, max_iter=2)
    assert info.value.residual > 0
    assert info.value.iterations == 2


def test_eigenvector_requires_an_edge():
    graph, _ = parse_edge_list("1 1\n")
    with pytest.raises(ValueError):
        eigenvector_centrality(graph)


def test_eigenvector_stable_once_converged(seven_node_graph):
    a = eigenvector_centrality(seven_node_graph, tol=1e-10, max_iter=500)
    b = eigenvector_centrality(seven_node_graph, tol=1e-10, max_iter=1000)
    assert np.allclose(a.scores, b.scores, atol=1e-10)


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
        pagerank(path_graph(3), max_iter=200)


def test_pagerank_damping_restores_convergence():
    sv = pagerank(path_graph(3), damping=0.85)
    assert sv.scores.sum() == pytest.approx(1.0, abs=1e-6)


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
    tol = 1e-10
    a = pagerank(seven_node_graph, tol=tol, max_iter=500)
    b = pagerank(seven_node_graph, tol=tol, max_iter=1000)
    assert a.metadata["delta"] <= tol
    assert np.abs(a.scores - b.scores).sum() <= tol


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


def test_cc_gm_and_stats_share_one_hop_pass(monkeypatch):
    import effgravity.centrality
    import effgravity.graph

    graph = random_graph(np.random.default_rng(4), 12, 0.3)
    calls = []
    original = effgravity.graph.hop_distances
    def counted(graph, source):
        calls.append(source)
        return original(graph, source)

    monkeypatch.setattr(effgravity.graph, "hop_distances", counted)
    monkeypatch.setattr(effgravity.centrality, "hop_distances", counted, raising=False)
    compute_scores(graph, ["cc", "gm"])
    topology_stats(graph)
    assert sorted(calls) == list(range(graph.n))


def test_effg_with_hop_distances_reduces_to_gravity(monkeypatch):
    import effgravity.effective_distance

    monkeypatch.setattr(effgravity.effective_distance, "effective_distances", hop_row)
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
    ranking = rank(scores)
    assert list(ranking.order) == [0, 4, 3, 1, 2, 5, 6]
    assert list(ranking.ranks) == [1, 4, 5, 3, 2, 6, 7]


def test_rank_all_equal_scores_identity_order():
    ranking = rank(ScoreVector("dc", np.full(5, 2.0)))
    assert list(ranking.order) == [0, 1, 2, 3, 4]


def test_rank_deterministic_across_runs(seven_node_graph):
    a = rank(gravity_centrality(seven_node_graph))
    b = rank(gravity_centrality(seven_node_graph))
    assert a.order.tobytes() == b.order.tobytes()
    assert a.ranks.tobytes() == b.ranks.tobytes()


def test_rank_top_k(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    assert list(ranking.top(2)) == [0, 4]
    with pytest.raises(ValueError):
        ranking.top(8)


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


def test_compute_scores_orchestration(seven_node_graph):
    scores = compute_scores(seven_node_graph, ["dc", "effg", "gm"])
    assert list(scores) == ["dc", "effg", "gm"]
    assert scores["effg"].scores[1] == pytest.approx(5.9104, abs=1e-3)


def test_compute_scores_unknown_measure(seven_node_graph):
    with pytest.raises(ValueError, match="unknown measures"):
        compute_scores(seven_node_graph, ["dc", "nope"])
