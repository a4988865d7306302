import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effgravity.evaluation
from effgravity import (
    Graph,
    SIConfig,
    degree_centrality,
    kendall_tau,
    rank,
    rank_vs_spread,
    spreading_power,
    spreading_powers,
    top_k_infection_curves,
    top_k_overlap,
)
from conftest import SEVEN_NODE_EDGE_LIST
from helpers import kendall_counts_bruteforce, kendall_counts_by_rows


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def evaluate_tables(tmp_path, *options):
    """The tables of ``evaluate`` on the seven-node graph, with ``--k 3``."""
    from effgravity.cli import build_parser, cmd_evaluate

    edge_file = tmp_path / "seven.edges"
    edge_file.write_text(SEVEN_NODE_EDGE_LIST)
    argv = ["evaluate", "--input", str(edge_file), "--out", "unused", "--k", "3", *options]
    return cmd_evaluate(build_parser().parse_args(argv))


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


def tied_rows(rng, n, rows):
    # per row, values from three of LEVELS (both infinities, both zeros) or,
    # in every third row, continuous values with a few repeats
    def row(index):
        if index % 3 == 2:
            return rng.choice(rng.random(max(1, n // 2)), size=n)
        return rng.choice(rng.choice(LEVELS, size=3, replace=False), size=n)

    return [(row(index), row(index + 1)) for index in range(rows)]


@pytest.mark.parametrize("n", [2, 3, 17, 64, 65])
def test_batched_tau_matches_bruteforce_across_chunks(n, monkeypatch):
    # five rows to a chunk, so 13 pairs take chunks of 5, 5 and 3 rows
    monkeypatch.setattr(effgravity.evaluation, "_SLOT_BUDGET", 5 * n)
    pairs = tied_rows(np.random.default_rng(n), n, 13)
    for convention, denominator in (("standard", n * (n - 1) // 2), ("ordered-pairs", n * (n - 1))):
        results = effgravity.evaluation._kendall_taus(pairs, convention)
        assert len(results) == len(pairs)
        for (x, y), result in zip(pairs, results):
            concordant, discordant = kendall_counts_bruteforce(x.tolist(), y.tolist())
            assert (result.concordant, result.discordant) == (concordant, discordant)
            assert type(result.concordant) is int and type(result.discordant) is int
            assert result.tau == (concordant - discordant) / denominator
            assert result == kendall_tau(x, y, convention)


def test_batched_tau_spans_chunks_at_the_default_budget():
    # 198 items, the size of the Jazz network: 165 rows to a chunk
    n = 198
    rows = effgravity.evaluation._SLOT_BUDGET // n + 2
    pairs = tied_rows(np.random.default_rng(127), n, rows)
    results = effgravity.evaluation._kendall_taus(pairs, "ordered-pairs")
    for (x, y), result in zip(pairs, results, strict=True):
        assert (result.concordant, result.discordant) == kendall_counts_by_rows(x, y)
        assert result == kendall_tau(x, y, "ordered-pairs")


def test_batched_tau_input_validation():
    batched = effgravity.evaluation._kendall_taus
    assert batched([]) == []
    good = ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        batched([good, ([1.0, 2.0], [1.0, 2.0])])
    with pytest.raises(ValueError, match="NaN"):
        batched([good, ([1.0, 2.0, 3.0], [1.0, np.nan, 2.0])])
    with pytest.raises(ValueError, match="at least two"):
        batched([([1.0], [2.0])])
    with pytest.raises(ValueError, match="convention"):
        batched([good], "nope")


# --- top-k overlap ----------------------------------------------------------

def test_overlap_identical_rankings(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    for k in (1, 3, 7):
        assert top_k_overlap(ranking, ranking, k) == k


def test_overlap_symmetry_and_disjoint():
    a = np.array([0, 1, 2, 3])
    b = np.array([3, 2, 1, 0])
    assert top_k_overlap(a, b, 2) == 0
    assert top_k_overlap(a, b, 3) == top_k_overlap(b, a, 3) == 2


def test_overlap_mismatched_universes_rejected():
    a = np.array([0, 1, 2])
    b = np.array([0, 1])
    with pytest.raises(ValueError):
        top_k_overlap(a, b, 2)


@pytest.mark.parametrize("k", [-1, 4])
def test_overlap_k_out_of_range_rejected(k):
    # one check of the k, for both rankings alike
    a = np.array([0, 1, 2])
    with pytest.raises(ValueError, match=f"k={k} out of range for 3 nodes"):
        top_k_overlap(a, a, k)


# orders that are not a permutation of 0 .. n - 1: a negative node, which
# numpy indexing would wrap, a repeated node, and non-integer dtypes
NOT_PERMUTATIONS = {
    "negative": (np.array([-1, 0, 1, 2]), r"in \[0, 4\)"),
    "past-n": (np.array([0, 1, 2, 4]), r"in \[0, 4\)"),
    "repeated": (np.array([0, 1, 1, 3]), "node 1 more than once"),
    "float": (np.array([0.0, 1.0, 2.0, 3.0]), "must be integers"),
    "bool": (np.array([True, False, True, False]), "must be integers"),
    "2-d": (np.array([[0, 1], [2, 3]]), "must be 1-d"),
}


@pytest.mark.parametrize("name", NOT_PERMUTATIONS)
def test_overlap_refuses_orders_that_are_not_permutations(name):
    order, match = NOT_PERMUTATIONS[name]
    good = np.array([3, 0, 1, 2])
    for a, b in ((order, good), (good, order)):
        with pytest.raises(ValueError, match=match):
            top_k_overlap(a, b, 1)


@pytest.mark.parametrize("name", NOT_PERMUTATIONS)
def test_top_k_curves_refuse_orders_that_are_not_permutations(name):
    # the SI layer checks each order whole, not only the k nodes it seeds
    order, match = NOT_PERMUTATIONS[name]
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cfg = SIConfig(beta=0.3, t_max=2, runs=2, seed=0)
    good = np.array([3, 0, 1, 2])
    for rankings in ([("bad", order), ("good", good)], [("good", good), ("bad", order)]):
        with pytest.raises(ValueError, match=match):
            top_k_infection_curves(path, rankings, 1, cfg)


def test_node_orders_may_be_python_lists():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert top_k_overlap([3, 0, 1, 2], [0, 3, 2, 1], 2) == 2
    assert rank_vs_spread([1, 0], [0.5, 2.0]) == [(1, 1, 2.0), (2, 0, 0.5)]
    cfg = SIConfig(beta=0.3, t_max=3, runs=4, seed=2)
    listed = top_k_infection_curves(path, [("a", [1, 2, 0, 3])], 2, cfg)["a"]
    array = top_k_infection_curves(path, [("a", np.array([1, 2, 0, 3]))], 2, cfg)["a"]
    assert listed.tobytes() == array.tobytes()


def test_overlap_takes_any_integer_dtype():
    a = np.array([3, 0, 1, 2], dtype=np.uint64)
    b = np.array([0, 3, 2, 1], dtype=np.int32)
    assert top_k_overlap(a, b, 2) == 2
    assert top_k_overlap(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0) == 0


# --- tau-vs-beta sweep --------------------------------------------------------
# evaluate simulates one config per distinct clamped beta in one
# spreading_powers call and correlates each measure against its vectors

def test_sweep_beta_zero_is_degenerate(seven_node_graph, tmp_path):
    powers = spreading_powers(seven_node_graph, [SIConfig(beta=0.0, t_max=4, runs=5, seed=1)])
    comparison = kendall_tau(degree_centrality(seven_node_graph).scores, powers[0])
    assert comparison.tau == 0.0
    assert comparison.degenerate
    options = ["--measures", "dc", "--beta-grid", "0", "--t-max-sweep", "4", "--runs", "5"]
    _, rows = evaluate_tables(tmp_path, *options, "--seed", "1")["tau_sweep.csv"]
    (measure, beta, tau), = rows
    assert measure == "dc"
    assert beta == 0.0
    assert tau == 0.0


def test_sweep_saturated_ground_truth_is_degenerate(seven_node_graph, tmp_path):
    powers = spreading_powers(seven_node_graph, [SIConfig(beta=1.0, t_max=6, runs=3, seed=1)])
    comparison = kendall_tau(degree_centrality(seven_node_graph).scores, powers[0])
    assert comparison.tau == 0.0
    assert comparison.degenerate
    options = ["--measures", "dc", "--beta-grid", "1", "--t-max-sweep", "6", "--runs", "3"]
    _, rows = evaluate_tables(tmp_path, *options, "--seed", "1")["tau_sweep.csv"]
    assert rows == [("dc", 1.0, 0.0)]


def test_sweep_compares_each_measure_once_per_distinct_clamped_beta(tmp_path, monkeypatch):
    from effgravity.cli import build_parser, cmd_evaluate

    edge_file = tmp_path / "seven.edges"
    edge_file.write_text(SEVEN_NODE_EDGE_LIST)
    calls = []
    batched = effgravity.evaluation._kendall_taus

    def counted(pairs, convention="standard"):
        pairs = list(pairs)
        calls.append((len(pairs), convention))
        return batched(pairs, convention)

    monkeypatch.setattr(effgravity.evaluation, "_kendall_taus", counted)
    argv = ["evaluate", "--input", str(edge_file), "--out", "unused", "--measures", "dc,cc"]
    args = build_parser().parse_args(argv + ["--tau-convention", "ordered-pairs", "--k", "3"])
    _, rows = cmd_evaluate(args)["tau_sweep.csv"]
    # the default grid's 8 betas, of which 1.2, 1.4 and 1.6 clamp to 1.0:
    # 5 distinct, 2 measures, all scored in one batched call
    assert calls == [(10, "ordered-pairs")]
    assert [(measure, beta) for measure, beta, _ in rows] == [
        (measure, beta) for beta in args.beta_grid for measure in ("dc", "cc")
    ]


def test_sweep_rejects_negative_beta(tmp_path, capsys):
    # the grid parser refuses it, so argparse exits with its usage error
    with pytest.raises(SystemExit) as info:
        evaluate_tables(tmp_path, "--measures", "dc", "--beta-grid=-0.1")
    assert info.value.code == 2
    assert "beta must be >= 0, got -0.1" in capsys.readouterr().err


def test_sweep_row_count_and_determinism(tmp_path):
    options = ["--measures", "dc,cc", "--beta-grid", "0.1,1.5,0.3,1.0", "--t-max-sweep", "3"]
    options += ["--runs", "4", "--seed", "10"]
    _, rows_a = evaluate_tables(tmp_path, *options)["tau_sweep.csv"]
    _, rows_b = evaluate_tables(tmp_path, *options)["tau_sweep.csv"]
    assert len(rows_a) == 4 * 2
    assert rows_a == rows_b
    # a beta that clamps onto another shares its taus
    assert rows_a[2:4] == [(measure, 1.5, tau) for measure, _, tau in rows_a[6:8]]


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
    partial = np.array([0, 1])
    cfg = SIConfig(beta=0.2, t_max=2, runs=2, seed=0)
    with pytest.raises(ValueError):
        rank_vs_spread(partial, spreading_power(seven_node_graph, cfg))


@pytest.mark.parametrize("name", NOT_PERMUTATIONS)
def test_rank_vs_spread_refuses_orders_that_are_not_permutations(name):
    order, match = NOT_PERMUTATIONS[name]
    with pytest.raises(ValueError, match=match):
        rank_vs_spread(order, np.ones(order.shape))
