import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effgravity import (
    Graph,
    Ranking,
    SIConfig,
    clamp_betas,
    degree_centrality,
    kendall_tau,
    rank,
    rank_vs_spread,
    spreading_power,
    tau_vs_beta_sweep,
    top_k_overlap,
)
from helpers import kendall_counts_bruteforce, kendall_counts_by_rows


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# --- kendall tau ------------------------------------------------------------

def test_tau_identity_standard():
    result = kendall_tau([1, 2, 3, 4], [1, 2, 3, 4])
    assert result.tau == 1.0
    assert result.concordant == 6
    assert result.discordant == 0
    assert result.pairs_total == 6


def test_tau_reversal_ordered_pairs_convention():
    result = kendall_tau([1, 2, 3, 4], [4, 3, 2, 1], convention="ordered-pairs")
    assert result.tau == -0.5
    assert result.discordant == 6


def test_tau_reversal_standard_convention():
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]).tau == -1.0


def test_tau_ties_count_toward_neither():
    result = kendall_tau([1, 1, 2], [1, 2, 3])
    assert result.concordant == 2
    assert result.discordant == 0
    assert result.tau == pytest.approx(2 / 3)


def test_tau_all_tied_is_degenerate_zero():
    result = kendall_tau([5, 5, 5], [1, 2, 3])
    assert result.tau == 0.0
    assert result.degenerate


def test_tau_matches_bruteforce_counts():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        # mix continuous values with small integers to exercise ties
        x = rng.integers(0, 6, size=n).astype(float)
        y = np.where(rng.random(n) < 0.5, rng.integers(0, 6, size=n), rng.random(n))
        concordant, discordant = kendall_counts_bruteforce(list(x), list(y))
        for convention, denominator in (
            ("standard", n * (n - 1) // 2),
            ("ordered-pairs", n * (n - 1)),
        ):
            result = kendall_tau(x, y, convention=convention)
            assert result.concordant == concordant
            assert result.discordant == discordant
            assert result.tau == (concordant - discordant) / denominator


def test_tau_antisymmetry_and_negation():
    rng = np.random.default_rng(67)
    x = rng.random(30)
    y = rng.random(30)
    assert kendall_tau(x, y).tau == kendall_tau(y, x).tau
    assert kendall_tau(x, -y).tau == -kendall_tau(x, y).tau


def test_tau_invariant_under_monotone_transforms():
    rng = np.random.default_rng(73)
    x = rng.random(25)
    y = rng.random(25)
    base = kendall_tau(x, y).tau
    assert kendall_tau(np.exp(x), y).tau == base
    assert kendall_tau(x, 3 * y + 10).tau == base


def test_tau_input_validation():
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [1])
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2], convention="nope")


@pytest.mark.parametrize("x, y", [([1, np.nan, 3], [1, 2, 3]), ([1, 2, 3], [np.nan] * 3)])
def test_tau_rejects_nan(x, y):
    with pytest.raises(ValueError, match="NaN"):
        kendall_tau(x, y)


def test_tau_infinities_tie_with_themselves():
    result = kendall_tau([np.inf, np.inf, -np.inf, 0.0], [1.0, 2.0, 3.0, -np.inf])
    # the pair of x = inf is tied; -inf < 0 < inf orders the other five
    assert (result.concordant, result.discordant) == (2, 3)
    result = kendall_tau([-np.inf, -np.inf, 1.0], [np.inf, np.inf, 0.0])
    assert (result.concordant, result.discordant) == (0, 2)


LEVELS = [-np.inf, -2.5, -0.0, 0.0, 1.0, 7.25, np.inf]


@st.composite
def heavily_tied_pairs(draw):
    n = draw(st.integers(2, 60))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=3, max_size=3))
    values = st.lists(st.sampled_from(levels), min_size=n, max_size=n)
    return draw(values), draw(values)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(heavily_tied_pairs())
def test_tau_matches_row_loop_on_heavy_ties(pair):
    x, y = pair
    concordant, discordant = kendall_counts_by_rows(x, y)
    n = len(x)
    for convention, denominator in (("standard", n * (n - 1) // 2), ("ordered-pairs", n * (n - 1))):
        result = kendall_tau(x, y, convention=convention)
        assert (result.concordant, result.discordant) == (concordant, discordant)
        assert type(result.concordant) is int and type(result.discordant) is int
        assert result.tau == (concordant - discordant) / denominator


def test_tau_matches_row_loop_on_longer_vectors():
    # many merge levels, one of them with a short last run
    rng = np.random.default_rng(79)
    for n in (127, 128, 129, 1000):
        x = rng.integers(0, 40, size=n).astype(float)
        y = np.where(rng.random(n) < 0.3, rng.integers(0, 5, size=n), rng.random(n))
        result = kendall_tau(x, y)
        assert (result.concordant, result.discordant) == kendall_counts_by_rows(x, y)


# --- top-k overlap ----------------------------------------------------------

def test_overlap_identical_rankings(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    for k in (1, 3, 7):
        assert top_k_overlap(ranking, ranking, k).shared == k


def test_overlap_symmetry_and_disjoint():
    a = Ranking(order=np.array([0, 1, 2, 3]), ranks=np.array([1, 2, 3, 4]))
    b = Ranking(order=np.array([3, 2, 1, 0]), ranks=np.array([4, 3, 2, 1]))
    assert top_k_overlap(a, b, 2).shared == 0
    assert top_k_overlap(a, b, 3).shared == top_k_overlap(b, a, 3).shared == 2


def test_overlap_mismatched_universes_rejected():
    a = Ranking(order=np.array([0, 1, 2]), ranks=np.array([1, 2, 3]))
    b = Ranking(order=np.array([0, 1]), ranks=np.array([1, 2]))
    with pytest.raises(ValueError):
        top_k_overlap(a, b, 2)


# --- tau-vs-beta sweep --------------------------------------------------------

def test_sweep_beta_zero_is_degenerate(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=4, runs=5, seed=1)
    rows = tau_vs_beta_sweep(
        seven_node_graph, [degree_centrality(seven_node_graph)], [0.0], cfg
    )
    (measure, beta, comparison), = rows
    assert measure == "dc"
    assert beta == 0.0
    assert comparison.tau == 0.0
    assert comparison.degenerate


def test_sweep_saturated_ground_truth_is_degenerate(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=6, runs=3, seed=1)
    rows = tau_vs_beta_sweep(
        seven_node_graph, [degree_centrality(seven_node_graph)], [1.0], cfg
    )
    comparison = rows[0][2]
    assert comparison.tau == 0.0
    assert comparison.degenerate


def test_clamp_betas_returns_the_values_over_one_without_a_warning():
    # the suite turns warnings into errors, so a warning here would fail
    assert clamp_betas([0.2, 1.0, 1.6, 3]) == ([0.2, 1.0, 1.0, 1.0], [1.6, 3])
    assert clamp_betas([]) == ([], [])
    for bad in ([-0.1], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            clamp_betas(bad)


def test_sweep_clamps_betas_above_one(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=2, runs=2, seed=1)
    with pytest.warns(UserWarning, match="clamped"):
        rows = tau_vs_beta_sweep(
            seven_node_graph, [degree_centrality(seven_node_graph)], [1.2], cfg
        )
    assert rows[0][1] == 1.2  # requested value is what the table reports


def test_sweep_simulates_each_distinct_clamped_beta_once(seven_node_graph, monkeypatch):
    import effgravity.epidemics
    from effgravity.cli import DEFAULT_BETA_GRID

    betas = [float(token) for token in DEFAULT_BETA_GRID.split(",")]
    passes = []
    engine = effgravity.epidemics._infected_counts

    def counted(graph, seed_masks, set_betas, t_max, runs, seed):
        passes.append((len(seed_masks), sorted(set(set_betas)), t_max, runs))
        return engine(graph, seed_masks, set_betas, t_max, runs, seed)

    monkeypatch.setattr(effgravity.epidemics, "_infected_counts", counted)
    cfg = SIConfig(beta=0.2, t_max=2, runs=3, seed=1)
    with pytest.warns(UserWarning, match="clamped"):
        rows = tau_vs_beta_sweep(
            seven_node_graph, [degree_centrality(seven_node_graph)], betas, cfg
        )
    # one engine pass over one block of the 7 nodes, stacked once per
    # distinct beta below 1; beta = 1 passes alone, with one run
    assert passes == [(4 * 7, [0.2, 0.4, 0.6, 0.8], 2, 3), (7, [1.0], 2, 1)]
    assert [beta for _, beta, _ in rows] == betas
    taus = {beta: comparison for _, beta, comparison in rows}
    assert taus[1.0] == taus[1.6]


def test_sweep_rejects_negative_beta(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=2, runs=2, seed=1)
    with pytest.raises(ValueError):
        tau_vs_beta_sweep(
            seven_node_graph, [degree_centrality(seven_node_graph)], [-0.1], cfg
        )


def test_sweep_row_count_and_determinism(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=3, runs=4, seed=10)
    measures = [degree_centrality(seven_node_graph)]
    betas = [0.1, 0.3, 0.5]
    rows_a = tau_vs_beta_sweep(seven_node_graph, measures, betas, cfg)
    rows_b = tau_vs_beta_sweep(seven_node_graph, measures, betas, cfg)
    assert len(rows_a) == len(betas)
    assert rows_a == rows_b


def test_measure_against_itself_scores_one():
    scores = np.array([3.0, 1.0, 2.0, 5.0])
    assert kendall_tau(scores, scores).tau == 1.0


# --- rank vs spread -----------------------------------------------------------

def test_rank_vs_spread_beta_zero(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    cfg = SIConfig(beta=0.0, t_max=5, runs=3, seed=0)
    table = rank_vs_spread(ranking, spreading_power(seven_node_graph, cfg))
    assert [row[0] for row in table] == list(range(1, 8))
    assert all(row[2] == 1.0 for row in table)


def test_rank_vs_spread_beta_one_connected(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    cfg = SIConfig(beta=1.0, t_max=5, runs=3, seed=0)
    table = rank_vs_spread(ranking, spreading_power(seven_node_graph, cfg))
    assert all(row[2] == 7.0 for row in table)


def test_rank_vs_spread_star_center_dominates():
    graph = star_graph(8)
    ranking = rank(degree_centrality(graph))
    cfg = SIConfig(beta=0.4, t_max=2, runs=10_000, seed=6)
    table = rank_vs_spread(ranking, spreading_power(graph, cfg))
    assert table[0][1] == 0  # the center tops the degree ranking
    center_mean = table[0][2]
    assert all(center_mean >= row[2] for row in table[1:])


def test_rank_vs_spread_requires_full_ranking(seven_node_graph):
    partial = Ranking(order=np.array([0, 1]), ranks=np.array([1, 2]))
    cfg = SIConfig(beta=0.2, t_max=2, runs=2, seed=0)
    with pytest.raises(ValueError):
        rank_vs_spread(partial, spreading_power(seven_node_graph, cfg))
