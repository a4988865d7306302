from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effgravity.epidemics
from effgravity import (
    Graph,
    SIConfig,
    closeness_centrality,
    degree_centrality,
    hop_distances,
    parse_edge_list,
    rank,
    simulate_si,
    spreading_power,
    spreading_powers,
    top_k_infection_curves,
)
from helpers import engine_graphs, oracle_graphs, random_connected_graph, si_curves_per_seed_set


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def seed_set_eccentricity(graph, seeds):
    rows = np.stack([hop_distances(graph, s) for s in seeds])
    nearest = rows.min(axis=0)
    return int(nearest.max())


def test_config_validation():
    SIConfig(beta=0.0, t_max=0, runs=1, seed=0)
    with pytest.raises(ValueError):
        SIConfig(beta=1.5, t_max=5, runs=10, seed=0)
    with pytest.raises(ValueError):
        SIConfig(beta=0.2, t_max=-1, runs=10, seed=0)
    with pytest.raises(ValueError):
        SIConfig(beta=0.2, t_max=5, runs=0, seed=0)
    with pytest.raises(ValueError):
        SIConfig(beta=0.2, t_max=5, runs=10, seed=-1)


def test_beta_zero_curve_stays_at_seed_count(seven_node_graph):
    cfg = SIConfig(beta=0.0, t_max=10, runs=20, seed=1)
    outcome = simulate_si(seven_node_graph, [0, 3], cfg)
    assert np.all(outcome.run_curves == 2)
    assert np.all(outcome.f_curve == 2.0)


def test_beta_one_full_sweep_by_eccentricity():
    rng = np.random.default_rng(13)
    graph = random_connected_graph(rng, 15, 0.15)
    seeds = [2]
    ecc = seed_set_eccentricity(graph, seeds)
    cfg = SIConfig(beta=1.0, t_max=ecc + 2, runs=5, seed=3)
    outcome = simulate_si(graph, seeds, cfg)
    assert np.all(outcome.run_curves[:, ecc:] == graph.n)


def test_f0_is_seed_count_after_dedup(seven_node_graph):
    cfg = SIConfig(beta=0.3, t_max=3, runs=4, seed=9)
    outcome = simulate_si(seven_node_graph, [1, 1, 2], cfg)
    assert np.all(outcome.run_curves[:, 0] == 2)


def test_every_run_curve_is_non_decreasing():
    rng = np.random.default_rng(29)
    graph = random_connected_graph(rng, 20, 0.15)
    cfg = SIConfig(beta=0.25, t_max=12, runs=40, seed=5)
    outcome = simulate_si(graph, [0], cfg)
    assert np.all(np.diff(outcome.run_curves, axis=1) >= 0)
    assert np.all(outcome.run_curves <= graph.n)


def test_bit_identical_for_identical_configs(seven_node_graph):
    cfg = SIConfig(beta=0.4, t_max=8, runs=25, seed=123)
    a = simulate_si(seven_node_graph, [0], cfg)
    b = simulate_si(seven_node_graph, [0], cfg)
    assert a.run_curves.tobytes() == b.run_curves.tobytes()


def test_star_one_step_mean_matches_binomial():
    graph = star_graph(10)
    cfg = SIConfig(beta=0.5, t_max=1, runs=10_000, seed=2024)
    outcome = simulate_si(graph, [0], cfg)
    expected = 1 + 10 * 0.5
    stderr = np.sqrt(10 * 0.25 / cfg.runs)
    assert abs(outcome.f_curve[1] - expected) <= 3 * stderr


def test_empty_seed_set_rejected(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=5, runs=2, seed=0)
    with pytest.raises(ValueError):
        simulate_si(seven_node_graph, [], cfg)


def test_out_of_range_seed_rejected(seven_node_graph):
    cfg = SIConfig(beta=0.2, t_max=5, runs=2, seed=0)
    with pytest.raises(ValueError):
        simulate_si(seven_node_graph, [7], cfg)


def test_raising_beta_never_loses_infections_with_shared_draws():
    # draws are positional in (seed, run, step, edge), so the same master
    # seed couples the two ensembles
    rng = np.random.default_rng(47)
    graph = random_connected_graph(rng, 18, 0.2)
    low = simulate_si(graph, [1], SIConfig(beta=0.3, t_max=10, runs=30, seed=77))
    high = simulate_si(graph, [1], SIConfig(beta=0.6, t_max=10, runs=30, seed=77))
    assert np.all(high.run_curves >= low.run_curves)


def test_superset_seeds_dominate_with_shared_draws():
    rng = np.random.default_rng(59)
    graph = random_connected_graph(rng, 18, 0.2)
    cfg = SIConfig(beta=0.35, t_max=10, runs=30, seed=88)
    small = simulate_si(graph, [4], cfg)
    large = simulate_si(graph, [4, 9], cfg)
    assert np.all(large.run_curves >= small.run_curves)


def exact_expected_curve(graph, seeds, beta, t_max):
    """Evolve the exact distribution over infected subsets (tiny graphs only).

    Under synchronous dynamics a susceptible node with c infected neighbors
    turns infected with probability 1 - (1-beta)^c, independently of the
    other susceptible nodes.
    """
    from itertools import combinations

    dist = {frozenset(seeds): 1.0}
    expected = [float(len(next(iter(dist))))]
    for _ in range(t_max):
        new_dist = {}
        for state, p_state in dist.items():
            at_risk = []
            for v in range(graph.n):
                if v in state:
                    continue
                c = sum(1 for u in graph.neighbors(v) if int(u) in state)
                if c:
                    at_risk.append((v, 1.0 - (1.0 - beta) ** c))
            for r in range(len(at_risk) + 1):
                for chosen in combinations(at_risk, r):
                    chosen_nodes = {v for v, _ in chosen}
                    p = p_state
                    for v, q in at_risk:
                        p *= q if v in chosen_nodes else 1.0 - q
                    if p > 0.0:
                        key = state | chosen_nodes
                        new_dist[key] = new_dist.get(key, 0.0) + p
        dist = new_dist
        expected.append(sum(len(s) * p for s, p in dist.items()))
    return expected


def test_ensemble_mean_matches_exact_markov_chain():
    # square with one diagonal: hubs and a two-path interact within 3 steps
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    beta, t_max, runs = 0.35, 3, 40_000
    exact = exact_expected_curve(graph, [1], beta, t_max)
    outcome = simulate_si(graph, [1], SIConfig(beta=beta, t_max=t_max, runs=runs, seed=99))
    # worst-case std of an infected count in [1, 4] is 1.5, so 3 standard
    # errors stay under 0.023 at this ensemble size
    for t in range(t_max + 1):
        assert outcome.f_curve[t] == pytest.approx(exact[t], abs=0.03)


def test_spreading_power_beta_zero_all_ones(seven_node_graph):
    cfg = SIConfig(beta=0.0, t_max=5, runs=10, seed=0)
    assert np.all(spreading_power(seven_node_graph, cfg) == 1.0)


def test_spreading_power_beta_one_saturates(seven_node_graph):
    cfg = SIConfig(beta=1.0, t_max=5, runs=3, seed=0)  # t_max >= diameter
    assert np.all(spreading_power(seven_node_graph, cfg) == 7.0)


def test_spreading_power_triangle_one_step_expectation():
    graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cfg = SIConfig(beta=0.5, t_max=1, runs=10_000, seed=31)
    power = spreading_power(graph, cfg)
    stderr = np.sqrt(2 * 0.25 / cfg.runs)
    assert np.all(np.abs(power - 2.0) <= 3 * stderr)


def test_top_k_identical_rankings_identical_curves(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    cfg = SIConfig(beta=0.3, t_max=6, runs=15, seed=12)
    curves = top_k_infection_curves(
        seven_node_graph, [("a", ranking), ("b", ranking)], 3, cfg
    )
    assert np.array_equal(curves["a"], curves["b"])


def test_top_k_equal_to_n_starts_saturated(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    cfg = SIConfig(beta=0.3, t_max=4, runs=5, seed=12)
    curves = top_k_infection_curves(seven_node_graph, [("dc", ranking)], 7, cfg)
    assert np.all(curves["dc"] == 7.0)


def test_top_k_out_of_range_rejected(seven_node_graph):
    ranking = rank(degree_centrality(seven_node_graph))
    cfg = SIConfig(beta=0.3, t_max=4, runs=5, seed=12)
    with pytest.raises(ValueError):
        top_k_infection_curves(seven_node_graph, [("dc", ranking)], 8, cfg)


def test_outcome_summary_fields(seven_node_graph):
    cfg = SIConfig(beta=0.5, t_max=6, runs=12, seed=4)
    outcome = simulate_si(seven_node_graph, [0], cfg)
    assert outcome.f_curve[0] == 1.0


@pytest.mark.parametrize("seeds", [[1.7], [True], [0, 2.0], np.array([1.0]), ["1"]])
def test_non_integer_seeds_rejected(seeds):
    # casting would seed node 1 for 1.7 and for True
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    cfg = SIConfig(beta=0.5, t_max=2, runs=2, seed=0)
    with pytest.raises(ValueError, match="integers"):
        simulate_si(graph, seeds, cfg)


def test_numpy_integer_seeds_accepted():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    cfg = SIConfig(beta=0.5, t_max=2, runs=3, seed=0)
    expected = simulate_si(graph, [1], cfg).run_curves.tobytes()
    for seeds in ([np.int32(1)], np.array([1], dtype=np.uint8), range(1, 2)):
        assert simulate_si(graph, seeds, cfg).run_curves.tobytes() == expected


@pytest.mark.parametrize("t_max", [0, 1, 6])
@pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
def test_public_simulations_match_per_seed_set_oracle(beta, t_max):
    for index, graph in enumerate(oracle_graphs()):
        config = SIConfig(beta=beta, t_max=t_max, runs=3, seed=index)
        singles = [[node] for node in range(graph.n)]
        finals = si_curves_per_seed_set(graph, singles, config)[:, :, -1]
        assert spreading_power(graph, config).tobytes() == finals.mean(axis=0).tobytes()

        seed_sets = [[0], list(range(0, graph.n, 2)), list(range(graph.n))]
        oracle = si_curves_per_seed_set(graph, seed_sets, config)
        for column, seeds in enumerate(seed_sets):
            outcome = simulate_si(graph, seeds, config)
            assert outcome.run_curves.tobytes() == oracle[:, column].tobytes()

        rankings = [
            ("dc", rank(degree_centrality(graph))),
            ("cc", rank(closeness_centrality(graph))),
        ]
        k = max(1, graph.n // 3)
        oracle = si_curves_per_seed_set(graph, [r.top(k) for _, r in rankings], config)
        curves = top_k_infection_curves(graph, rankings, k, config)
        for column, (name, _) in enumerate(rankings):
            assert curves[name].tobytes() == oracle[:, column].mean(axis=0).tobytes()


def oracle_powers(graph, configs):
    """Mean final counts of single-node seedings, one oracle ensemble per config."""
    singles = [[node] for node in range(graph.n)]
    return [
        si_curves_per_seed_set(graph, singles, config)[:, :, -1].mean(axis=0)
        for config in configs
    ]


def counting_engine(monkeypatch):
    """Record (seed sets, distinct betas, horizon, runs) of every engine pass."""
    passes = []
    engine = effgravity.epidemics._infected_counts

    def counted(graph, seed_masks, betas, t_max, runs, seed):
        passes.append((len(seed_masks), sorted(set(betas)), t_max, runs))
        return engine(graph, seed_masks, betas, t_max, runs, seed)

    monkeypatch.setattr(effgravity.epidemics, "_infected_counts", counted)
    return passes


def test_spreading_power_blocks_match_oracle(monkeypatch):
    graph = random_connected_graph(np.random.default_rng(71), 18, 0.15)
    config = SIConfig(beta=0.35, t_max=6, runs=5, seed=8)
    # a seed set is one bit per slot: four single-node sets per block, so
    # blocks of 4, 4, 4, 4 and 2 nodes
    monkeypatch.setattr(effgravity.epidemics, "_BLOCK_BYTES", graph.indices.size // 2)
    passes = counting_engine(monkeypatch)
    (oracle,) = oracle_powers(graph, [config])
    assert spreading_power(graph, config).tobytes() == oracle.tobytes()
    assert [sets for sets, _, _, _ in passes] == [4, 4, 4, 4, 2]


def test_spreading_powers_blocks_of_several_betas_match_oracle(monkeypatch):
    graph = random_connected_graph(np.random.default_rng(73), 18, 0.15)
    configs = [
        SIConfig(beta=beta, t_max=t_max, runs=4, seed=3)
        for beta, t_max in ((0.2, 3), (0.5, 3), (1.0, 3), (0.2, 7), (1.0, 1), (0.5, 3))
    ]
    # two betas below 1 stack each block twice: 4 nodes, 8 seed sets a block
    monkeypatch.setattr(effgravity.epidemics, "_BLOCK_BYTES", graph.indices.size)
    passes = counting_engine(monkeypatch)
    powers = spreading_powers(graph, configs)
    for power, oracle in zip(powers, oracle_powers(graph, configs)):
        assert power.tobytes() == oracle.tobytes()
    # one pass per block, to the longest horizon; beta = 1 passes alone, with
    # one run, and blocks of 8 nodes as it stacks each block once
    assert passes == (
        [(8, [0.2, 0.5], 7, 4)] * 4 + [(4, [0.2, 0.5], 7, 4)]
        + [(8, [1.0], 3, 1)] * 2 + [(2, [1.0], 3, 1)]
    )


def test_spreading_powers_match_single_configs_and_oracle():
    # t_max 6 > t_max 4 at the same beta, as evaluate's sweep can ask for
    betas_and_horizons = ((0.3, 4), (0.7, 4), (1.0, 4), (0.3, 6), (1.0, 0), (0.0, 2))
    for index, graph in enumerate(engine_graphs()):
        configs = [SIConfig(beta, t_max, runs=2, seed=index) for beta, t_max in betas_and_horizons]
        powers = spreading_powers(graph, configs)
        oracles = oracle_powers(graph, configs)
        for config, power, oracle in zip(configs, powers, oracles):
            assert power.tobytes() == spreading_power(graph, config).tobytes()
            assert power.tobytes() == oracle.tobytes(), (index, config)


def test_spreading_powers_balls_count_only_reachable_nodes():
    # two components and an isolated node: the ball never reaches past its
    # component, however long the horizon
    graph = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    (power,) = spreading_powers(graph, [SIConfig(beta=1.0, t_max=9, runs=3, seed=0)])
    assert power.tolist() == [4, 4, 4, 4, 3, 3, 3, 1]
    (power,) = spreading_powers(graph, [SIConfig(beta=1.0, t_max=1, runs=3, seed=0)])
    assert power.tolist() == [2, 3, 3, 2, 2, 3, 2, 1]


def test_spreading_powers_beta_one_is_one_run_of_hop_balls(monkeypatch):
    # every draw opens every slot at beta = 1, so one run per block gives
    # each node the size of its hop ball, cut at t_max on a longer path
    n, t_max = 15, 3
    graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    monkeypatch.setattr(effgravity.epidemics, "_BLOCK_BYTES", graph.indices.size)
    passes = counting_engine(monkeypatch)
    (power,) = spreading_powers(graph, [SIConfig(beta=1.0, t_max=t_max, runs=6, seed=2)])
    assert passes == [(8, [1.0], t_max, 1), (7, [1.0], t_max, 1)]
    balls = [
        np.count_nonzero((row >= 0) & (row <= t_max))
        for row in (hop_distances(graph, s) for s in range(n))
    ]
    assert power.tolist() == balls


def test_spreading_powers_need_one_seed_and_run_count(seven_node_graph):
    base = SIConfig(beta=0.3, t_max=3, runs=4, seed=1)
    assert spreading_powers(seven_node_graph, []) == []
    for other in (replace(base, seed=2), replace(base, runs=5)):
        with pytest.raises(ValueError, match="share seed and runs"):
            spreading_powers(seven_node_graph, [base, other])


def engine_counts(graph, seed_sets, betas, config):
    masks = np.zeros((len(seed_sets), graph.n), dtype=bool)
    for row, seeds in zip(masks, seed_sets):
        row[seeds] = True
    runs = effgravity.epidemics._infected_counts(
        graph, masks, betas, config.t_max, config.runs, config.seed
    )
    return np.stack(list(runs))


def assert_engine_matches_oracle(graph, seed_sets, config, betas=None):
    """Compare the engine, each seed set at its own beta (config.beta if none
    are given), with one oracle ensemble per distinct beta."""
    betas = [config.beta] * len(seed_sets) if betas is None else betas
    counts = engine_counts(graph, seed_sets, betas, config)
    oracle = np.empty_like(counts)
    for beta in set(betas):
        columns = [column for column, own in enumerate(betas) if own == beta]
        oracle[:, columns] = si_curves_per_seed_set(
            graph, [seed_sets[column] for column in columns], replace(config, beta=beta)
        )
    assert counts.tobytes() == oracle.tobytes()
    return counts


def many_word_seed_sets(rng, sets):
    # seeds come from nodes 0..9 only, so the other 20 are reached by spreading
    return [
        sorted(rng.choice(10, size=int(rng.integers(1, 4)), replace=False).tolist())
        for _ in range(sets)
    ]


def test_engine_many_words_per_node_matches_oracle():
    # 70 seed sets: two 64-bit words per node, the last one padded
    rng = np.random.default_rng(83)
    graph = random_connected_graph(rng, 30, 0.08)
    seed_sets = many_word_seed_sets(rng, 70)
    for beta in (0.2, 0.6):
        config = SIConfig(beta=beta, t_max=8, runs=4, seed=5)
        counts = assert_engine_matches_oracle(graph, seed_sets, config)
        assert counts[:, :, -1].max() > counts[:, :, 0].max()


@pytest.mark.parametrize("sets", [65, 128, 130])
def test_engine_word_boundaries_match_oracle(sets):
    # one bit past a word, two full words, and three words with two bits in
    # the last one
    rng = np.random.default_rng(sets)
    graph = random_connected_graph(rng, 30, 0.08)
    config = SIConfig(beta=0.3, t_max=8, runs=3, seed=7)
    assert_engine_matches_oracle(graph, many_word_seed_sets(rng, sets), config)


def test_engine_full_word_leaves_its_node_open_to_other_words():
    # path 0-1-2-3: the first word's 64 sets (seed 1, beta 1) fill node 2's
    # first word at step 1, while the second word's sets (seed 0) reach
    # node 2 only later, through node 1
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    seed_sets = [[1]] * 64 + [[0]] * 6
    betas = [1.0] * 64 + [0.6] * 6
    config = SIConfig(beta=0.6, t_max=5, runs=6, seed=13)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas)
    assert counts[:, 64:, -1].max() == 4


def test_engine_seed_sets_at_mixed_betas_match_oracle():
    # 130 sets over three words at five betas, each set of every beta
    # appearing in several words: equal betas share a level, beta = 0 never
    # spreads and beta = 1 opens every slot
    rng = np.random.default_rng(89)
    graph = random_connected_graph(rng, 30, 0.08)
    seed_sets = [
        sorted(rng.choice(30, size=int(rng.integers(1, 3)), replace=False).tolist())
        for _ in range(130)
    ]
    betas = rng.choice([0.0, 0.15, 0.5, 0.85, 1.0], size=130).tolist()
    config = SIConfig(beta=0.5, t_max=7, runs=3, seed=21)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas)
    still = [column for column, beta in enumerate(betas) if beta == 0.0]
    assert np.all(counts[:, still] == counts[:, still, :1])


def test_engine_leaves_untouched_component_alone():
    # every seed lies on the path 0..7; the triangle 8, 9, 10 is never reached
    edges = [(i, i + 1) for i in range(7)] + [(8, 9), (9, 10), (8, 10)]
    graph = Graph.from_edges(11, edges)
    seed_sets = [[0], [1], [0, 1], [0]]
    config = SIConfig(beta=0.7, t_max=9, runs=5, seed=17)
    counts = assert_engine_matches_oracle(graph, seed_sets, config)
    assert counts.max() == 8


def test_engine_beta_one_saturates_every_seed_set():
    rng = np.random.default_rng(97)
    graph = random_connected_graph(rng, 16, 0.1)
    diameter = max(int(hop_distances(graph, s).max()) for s in range(graph.n))
    seed_sets = [[node] for node in range(graph.n)] + [[0, 9]]
    config = SIConfig(beta=1.0, t_max=diameter + 3, runs=2, seed=4)
    counts = assert_engine_matches_oracle(graph, seed_sets, config)
    # every set is saturated by step `diameter`, so later steps keep no slot
    assert np.all(counts[:, :, diameter:] == graph.n)


def test_engine_stops_a_run_once_every_set_is_saturated(monkeypatch):
    # on a complete graph at beta = 1 one seed infects everyone in the first
    # step, so each run draws once and copies that count forward
    graph = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    config = SIConfig(beta=1.0, t_max=5, runs=3, seed=8)
    oracle = si_curves_per_seed_set(graph, [[0], [2, 4]], config)
    draws = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            draws.append(size)
            return self.rng.random(size)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed)))
    counts = engine_counts(graph, [[0], [2, 4]], [1.0, 1.0], config)
    assert draws == [2 * graph.m] * config.runs
    assert counts.tobytes() == oracle.tobytes()
    assert np.all(counts[:, :, 1:] == graph.n)


def test_engine_every_set_saturated_from_the_start():
    rng = np.random.default_rng(101)
    graph = random_connected_graph(rng, 12, 0.2)
    config = SIConfig(beta=0.5, t_max=4, runs=3, seed=6)
    everything = list(range(graph.n))
    counts = assert_engine_matches_oracle(graph, [everything] * 9, config)
    assert np.all(counts == graph.n)
    rankings = [("dc", rank(degree_centrality(graph))), ("cc", rank(closeness_centrality(graph)))]
    curves = top_k_infection_curves(graph, rankings, graph.n, config)
    oracle = si_curves_per_seed_set(graph, [everything], config)[:, 0].mean(axis=0)
    for name, _ in rankings:
        assert curves[name].tobytes() == oracle.tobytes()


@st.composite
def si_cases(draw):
    # two blocks with no edge between them, so at least two components
    n = draw(st.integers(2, 10))
    split = draw(st.integers(1, n - 1))
    pairs = [
        (i, j)
        for block in (range(split), range(split, n))
        for i in block
        for j in block
        if i < j
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # two or three seed sets from a pool of at most three nodes, each at a
    # beta of its own, cycled in runs of equal sets, up to 135 sets in
    # all: nodes are reached by some sets steps before others, runs of one
    # or five mix betas within a 64-bit word, and with runs of 64 one word
    # can be saturated at a node while another is not
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    distinct = draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=1, unique=True), min_size=2, max_size=3)
    )
    beta = st.sampled_from([1.0, 0.9, 0.0]) | st.floats(0.0, 1.0)
    levels = draw(st.lists(beta, min_size=len(distinct), max_size=len(distinct), unique=True))
    run = draw(st.sampled_from([64, 1, 5]))
    picks = [index // run % len(distinct) for index in range(draw(st.integers(1, 135)))]
    seed_sets = [distinct[pick] for pick in picks]
    betas = [levels[pick] for pick in picks]
    config = SIConfig(
        beta=levels[0],
        t_max=draw(st.integers(2, 6)),
        runs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
    )
    return Graph.from_edges(n, edges), seed_sets, betas, config


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(si_cases())
def test_shared_draw_engine_matches_per_seed_set_oracle(case):
    # up to 135 seed sets, so many cases span two or three 64-bit words per node
    graph, seed_sets, betas, config = case
    assert_engine_matches_oracle(graph, seed_sets, config, betas)
