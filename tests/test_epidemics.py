import hashlib
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
from helpers import (
    engine_graphs,
    hop_distances_by_queue,
    oracle_graphs,
    random_connected_graph,
    si_curves_per_seed_set,
)


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
    # integers only: a float would fail in the first simulation, and a bool
    # would count as 0 or 1; numpy integers are accepted
    SIConfig(beta=0.2, t_max=np.int64(5), runs=np.int32(10), seed=np.uint8(0))
    for field in ("t_max", "runs", "seed"):
        for value in (2.0, 0.5, True, np.float64(3.0), np.bool_(True)):
            kwargs = {"beta": 0.2, "t_max": 5, "runs": 10, "seed": 0, field: value}
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SIConfig(**kwargs)
    # beta is a real number: a bool would simulate as 0 or 1, and a string
    # or None is a ValueError too; ints 0 and 1 and numpy floats are accepted
    for beta in (0, 1, 0.5, np.float64(0.5), np.float32(1.0)):
        assert SIConfig(beta=beta, t_max=3, runs=2, seed=0).beta == beta
    for beta in (True, False, np.True_, np.bool_(False), "0.2", None):
        with pytest.raises(ValueError, match="beta must be a real number"):
            SIConfig(beta=beta, t_max=3, runs=2, seed=0)
    for beta in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"beta must be in \[0, 1\]"):
            SIConfig(beta=beta, t_max=3, runs=2, seed=0)


def test_spreading_powers_of_a_graph_with_no_nodes():
    # every measure scores such a graph with an empty vector, and so does SI
    graph = Graph.from_edges(0, [])
    configs = [SIConfig(0.3, 4, 2, 0), SIConfig(1.0, 2, 2, 0), SIConfig(0.3, 1, 2, 0)]
    powers = spreading_powers(graph, configs)
    assert [power.shape for power in powers] == [(0,)] * 3
    assert spreading_power(graph, configs[0]).shape == (0,)


def test_beta_zero_curve_stays_at_seed_count(seven_node_graph):
    cfg = SIConfig(beta=0.0, t_max=10, runs=20, seed=1)
    curves = simulate_si(seven_node_graph, [0, 3], cfg)
    assert np.all(curves == 2)
    assert np.all(curves.mean(axis=0) == 2.0)


def test_beta_one_full_sweep_by_eccentricity():
    rng = np.random.default_rng(13)
    graph = random_connected_graph(rng, 15, 0.15)
    seeds = [2]
    ecc = seed_set_eccentricity(graph, seeds)
    cfg = SIConfig(beta=1.0, t_max=ecc + 2, runs=5, seed=3)
    curves = simulate_si(graph, seeds, cfg)
    assert np.all(curves[:, ecc:] == graph.n)


def test_f0_is_seed_count_after_dedup(seven_node_graph):
    cfg = SIConfig(beta=0.3, t_max=3, runs=4, seed=9)
    curves = simulate_si(seven_node_graph, [1, 1, 2], cfg)
    assert np.all(curves[:, 0] == 2)


def test_every_run_curve_is_non_decreasing():
    rng = np.random.default_rng(29)
    graph = random_connected_graph(rng, 20, 0.15)
    cfg = SIConfig(beta=0.25, t_max=12, runs=40, seed=5)
    curves = simulate_si(graph, [0], cfg)
    assert np.all(np.diff(curves, axis=1) >= 0)
    assert np.all(curves <= graph.n)


def test_bit_identical_for_identical_configs(seven_node_graph):
    cfg = SIConfig(beta=0.4, t_max=8, runs=25, seed=123)
    a = simulate_si(seven_node_graph, [0], cfg)
    b = simulate_si(seven_node_graph, [0], cfg)
    assert a.tobytes() == b.tobytes()


def test_si_draws_are_pcg64_53_bit_doubles():
    # the stream the README's determinism contract names: run r of seed s
    # draws PCG64 words seeded by SeedSequence((s, r)), and each uniform is
    # a word's top 53 bits times 2^-53. A numpy release that changes it
    # fails here, not only in the golden manifest's SI entries.
    draws = 4096
    for seed, run in [(0, 0), (1, 5), (3964924996, 7)]:
        raw = np.random.PCG64(np.random.SeedSequence((seed, run))).random_raw(draws)
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        assert ((raw >> 11) * 2**-53).tobytes() == rng.random(draws).tobytes()
    # the first eight words of the last pair, (3964924996, 7)
    digest = hashlib.sha256(raw[:8].astype("<u8").tobytes()).hexdigest()
    assert digest == "8e5db94f97adfb1a006583f0ef792f446998af2d6536bc5483d6d0b4fb75668a"


def test_star_one_step_mean_matches_binomial():
    graph = star_graph(10)
    cfg = SIConfig(beta=0.5, t_max=1, runs=10_000, seed=2024)
    curves = simulate_si(graph, [0], cfg)
    expected = 1 + 10 * 0.5
    stderr = np.sqrt(10 * 0.25 / cfg.runs)
    assert abs(curves.mean(axis=0)[1] - expected) <= 3 * stderr


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
    assert np.all(high >= low)


def test_superset_seeds_dominate_with_shared_draws():
    rng = np.random.default_rng(59)
    graph = random_connected_graph(rng, 18, 0.2)
    cfg = SIConfig(beta=0.35, t_max=10, runs=30, seed=88)
    small = simulate_si(graph, [4], cfg)
    large = simulate_si(graph, [4, 9], cfg)
    assert np.all(large >= small)


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
    curves = simulate_si(graph, [1], SIConfig(beta=beta, t_max=t_max, runs=runs, seed=99))
    # worst-case std of an infected count in [1, 4] is 1.5, so 3 standard
    # errors stay under 0.023 at this ensemble size
    for t in range(t_max + 1):
        assert curves.mean(axis=0)[t] == pytest.approx(exact[t], abs=0.03)


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


@pytest.mark.parametrize(
    "order, k, match",
    [
        # -1 would wrap to the last node
        ([-1, 0, 1, 2], 1, r"in \[0, 4\)"),
        # one node where the top 2 should be two
        ([0], 2, "only 1 distinct"),
        ([0, 0, 1, 2], 2, "only 1 distinct"),
    ],
    ids=["negative", "short", "repeated"],
)
def test_top_k_refuses_orders_without_k_distinct_nodes(order, k, match):
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cfg = SIConfig(beta=0.3, t_max=4, runs=5, seed=12)
    rankings = [("dc", np.arange(4)), ("bad", np.array(order))]
    with pytest.raises(ValueError, match=match):
        top_k_infection_curves(path, rankings, k, cfg)


def test_outcome_summary_fields(seven_node_graph):
    cfg = SIConfig(beta=0.5, t_max=6, runs=12, seed=4)
    curves = simulate_si(seven_node_graph, [0], cfg)
    # one read-only row of counts per run, t = 0 .. t_max
    assert curves.shape == (12, 7) and curves.dtype == np.int64
    assert not curves.flags.writeable
    assert curves.mean(axis=0)[0] == 1.0


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
    expected = simulate_si(graph, [1], cfg).tobytes()
    for seeds in ([np.int32(1)], np.array([1], dtype=np.uint8), range(1, 2)):
        assert simulate_si(graph, seeds, cfg).tobytes() == expected


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
            curves = simulate_si(graph, seeds, config)
            assert curves.tobytes() == oracle[:, column].tobytes()

        rankings = [
            ("dc", rank(degree_centrality(graph))),
            ("cc", rank(closeness_centrality(graph))),
        ]
        k = max(1, graph.n // 3)
        oracle = si_curves_per_seed_set(graph, [order[:k] for _, order in rankings], config)
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

    def counted(graph, seed_masks, betas, t_max, runs, seed, **options):
        passes.append((len(seed_masks), sorted(set(betas)), t_max, runs))
        return engine(graph, seed_masks, betas, t_max, runs, seed, **options)

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


def test_spreading_powers_are_read_only(seven_node_graph):
    # a repeated config gets the same vector, so writing into one result
    # would change the other
    config = SIConfig(0.3, 3, 2, 0)
    powers = spreading_powers(seven_node_graph, [config, config, SIConfig(1.0, 2, 2, 0)])
    for power in powers:
        assert not power.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            power[0] = -1.0
    assert not spreading_power(seven_node_graph, config).flags.writeable


def test_spreading_powers_read_several_horizons_past_saturation(monkeypatch):
    # each group (beta 0.9, and beta 1 on its own) is read at three
    # horizons in one pass; runs stop once every seeding is saturated, long
    # before step 40, and must still report n at that horizon
    complete = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    path = Graph.from_edges(15, [(i, i + 1) for i in range(14)])
    passes = counting_engine(monkeypatch)
    for graph in (complete, path):
        configs = [
            SIConfig(beta=beta, t_max=t_max, runs=5, seed=19)
            for beta in (0.9, 1.0)
            for t_max in (1, 3, 40)
        ]
        powers = spreading_powers(graph, configs)
        for power, oracle in zip(powers, oracle_powers(graph, configs)):
            assert power.tobytes() == oracle.tobytes()
        assert powers[-1].tolist() == [graph.n] * graph.n
    assert passes == [
        (6, [0.9], 40, 5), (6, [1.0], 40, 1), (15, [0.9], 40, 5), (15, [1.0], 40, 1)
    ]


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
        for row in (hop_distances_by_queue(graph, s) for s in range(n))
    ]
    assert power.tolist() == balls


def test_spreading_powers_need_one_seed_and_run_count(seven_node_graph):
    base = SIConfig(beta=0.3, t_max=3, runs=4, seed=1)
    assert spreading_powers(seven_node_graph, []) == []
    for other in (replace(base, seed=2), replace(base, runs=5)):
        with pytest.raises(ValueError, match="share seed and runs"):
            spreading_powers(seven_node_graph, [base, other])


def engine_counts(graph, seed_sets, betas, config, **options):
    masks = np.zeros((len(seed_sets), graph.n), dtype=bool)
    for row, seeds in zip(masks, seed_sets):
        row[seeds] = True
    runs = effgravity.epidemics._infected_counts(
        graph, masks, betas, config.t_max, config.runs, config.seed, **options
    )
    return np.stack(list(runs))


def assert_engine_matches_oracle(graph, seed_sets, config, betas=None, ends=None):
    """Compare the engine, each seed set at its own beta (config.beta if none
    are given), with one oracle ensemble per distinct beta.

    With ``ends``, each set's counts after its last step must read 0, and
    the engine must give the same columns when it reads only some steps.
    """
    betas = [config.beta] * len(seed_sets) if betas is None else betas
    counts = engine_counts(graph, seed_sets, betas, config, ends=ends)
    oracle = np.empty_like(counts)
    for beta in set(betas):
        columns = [column for column, own in enumerate(betas) if own == beta]
        oracle[:, columns] = si_curves_per_seed_set(
            graph, [seed_sets[column] for column in columns], replace(config, beta=beta)
        )
    if ends is not None:
        for column, end in enumerate(ends):
            oracle[:, column, end + 1 :] = 0
    assert counts.tobytes() == oracle.tobytes()
    if ends is not None:
        # every horizon a set ends at, and the first and last steps
        steps = sorted({0, config.t_max, *ends})
        read = engine_counts(graph, seed_sets, betas, config, ends=ends, steps=steps)
        assert read.tobytes() == counts[:, :, steps].tobytes()
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


@pytest.mark.parametrize(
    "edges, grown",
    [
        # from one end of a path, one new node a step
        ([(i, i + 1) for i in range(299)], lambda t: t + 1),
        # from one node of a cycle, one new node each way a step
        ([(i, (i + 1) % 300) for i in range(300)], lambda t: 2 * t + 1),
    ],
    ids=["path", "cycle"],
)
def test_engine_beta_one_grows_by_closed_form(edges, grown):
    # every step reaches new nodes, so every step adds their out-slots to
    # the live mask; a slot left out of it would stop the spread there
    graph = Graph.from_edges(300, edges)
    config = SIConfig(beta=1.0, t_max=305, runs=3, seed=2)
    counts = engine_counts(graph, [[0]], [1.0], config)
    expected = [min(grown(t), graph.n) for t in range(config.t_max + 1)]
    assert np.all(counts[:, 0] == expected)


def test_engine_node_first_reached_with_no_open_set_spreads_later():
    # path 0..7; set 0 seeds node 0 at beta 0, set 1 seeds node 7 at 0.95.
    # Step 1 opens slot 0 -> 1 below 0.95, but the level table zeroes the
    # bits it carries, so node 1 is reached with no set infected. Set 1
    # infects it later and must still spread through it to node 0.
    graph = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    seed_sets, betas = [[0], [7]], [0.0, 0.95]
    config = SIConfig(beta=0.95, t_max=12, runs=4, seed=31)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas)
    slot = graph.indptr[0]
    first_draws = [
        np.random.default_rng(np.random.SeedSequence((config.seed, run))).random(2 * graph.m)[slot]
        for run in range(config.runs)
    ]
    assert any(
        draw < 0.95 and final == graph.n for draw, final in zip(first_draws, counts[:, 1, -1])
    )
    assert np.all(counts[:, 0] == 1)


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


@pytest.mark.parametrize(
    "retirements, isolated",
    [(1, False), (2, False), (3, False), (3, True)],
    ids=["1", "2", "3", "3-isolated-nodes"],
)
def test_engine_sets_leaving_at_several_steps_match_oracle(retirements, isolated):
    # 100 sets over two words at four betas, in blocks that end at one,
    # two or three steps before the last; a cut inside a word leaves a
    # partial word behind. The isolated-nodes case runs on the engine graph
    # whose nodes 0, 3, 5 and 9 have no edge: the last node has no out-slot
    # (its indptr entry is 2m), and sets carried past every cut seed it
    # with connected nodes
    rng = np.random.default_rng(103 + retirements)
    if isolated:
        (graph,) = [
            graph
            for graph in engine_graphs()
            if np.flatnonzero(graph.degrees == 0).tolist() == [0, 3, 5, 9]
        ]
    else:
        graph = random_connected_graph(rng, 30, 0.08)
    seed_sets = many_word_seed_sets(rng, 100)
    betas = rng.choice([0.15, 0.4, 0.7, 0.95], size=100).tolist()
    # (sets, last step) from the first set on
    blocks = {
        1: [(70, 9), (30, 4)],
        2: [(50, 9), (30, 6), (20, 2)],
        3: [(40, 9), (27, 6), (21, 3), (12, 1)],
    }[retirements]
    ends = [end for size, end in blocks for _ in range(size)]
    if isolated:
        assert graph.indptr[9] == graph.indices.size
        assert any(9 in seeds and graph.degrees[seeds].any() for seeds in seed_sets[:40])
    config = SIConfig(beta=0.4, t_max=9, runs=4, seed=retirements)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas, ends)
    assert counts[:, :, -1].max() > counts[:, :, 0].max()


def test_engine_retirement_lowers_the_top_beta():
    # the beta 0.9 sets leave after step 2; from step 3 the compare keeps
    # only draws below 0.3, and a draw between 0.3 and 0.9 must not open a
    # slot for the sets left
    rng = np.random.default_rng(107)
    graph = random_connected_graph(rng, 25, 0.1)
    seed_sets = [[node] for node in range(0, 25, 3)] * 2
    betas = [0.3] * 9 + [0.9] * 9
    ends = [8] * 9 + [2] * 9
    config = SIConfig(beta=0.3, t_max=8, runs=5, seed=9)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas, ends)
    assert np.all(counts[:, 9:, 3:] == 0)
    assert np.any(counts[:, :9, -1] > counts[:, :9, 2])


def test_engine_node_touched_only_by_retired_sets_opens_when_reached_again():
    # path 0..9 at beta 1: set 1 seeds node 0 and reaches nodes 1 and 2,
    # then leaves after step 2. Set 0 seeds node 9 and reaches node 2 at
    # step 7; only then may node 2's out-slots join the live mask again, and
    # set 0 must go on to nodes 1 and 0
    graph = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
    config = SIConfig(beta=1.0, t_max=12, runs=2, seed=3)
    counts = assert_engine_matches_oracle(graph, [[9], [0]], config, ends=[12, 2])
    assert counts[0, 0].tolist() == [min(t + 1, 10) for t in range(13)]
    assert counts[0, 1].tolist() == [1, 2, 3] + [0] * 10


def test_engine_run_saturating_before_a_retire_step(monkeypatch):
    # on a complete graph at beta = 1 every set is saturated after step 1,
    # long before the sets ending at 3 leave: each run draws once, reads n
    # up to each set's own last step and 0 after it
    complete = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    draws = []

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            draws.append(size)
            return self.rng.random(size)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed)))
    config = SIConfig(beta=1.0, t_max=5, runs=3, seed=8)
    counts = assert_engine_matches_oracle(complete, [[0], [2, 4], [1]], config, ends=[5, 3, 3])
    assert counts[0].tolist() == [[1, 6, 6, 6, 6, 6], [2, 6, 6, 6, 0, 0], [1, 6, 6, 6, 0, 0]]
    draws.clear()
    # a set that never spreads (beta 0, on an isolated node) holds the run
    # open until it leaves after step 2; the others are saturated by then,
    # so the run stops drawing there
    graph = Graph.from_edges(7, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    counts = engine_counts(graph, [[0, 6], [6]], [1.0, 0.0], config, ends=[5, 2])
    assert draws == [2 * graph.m] * 2 * config.runs
    assert counts[0].tolist() == [[2, 7, 7, 7, 7, 7], [1, 1, 1, 0, 0, 0]]


def test_engine_rejects_ends_out_of_order_or_range():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    config = SIConfig(beta=0.5, t_max=4, runs=1, seed=0)
    for ends in ([2, 3], [5, 1], [1, -1], [4]):
        with pytest.raises(ValueError, match="non-increasing steps"):
            engine_counts(graph, [[0], [2]], [0.5, 0.5], config, ends=ends)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 16, 31, 32])
def test_level_lookup_matches_searchsorted(count):
    rng = np.random.default_rng(count)
    levels = np.array(sorted(set(rng.random(count).tolist())))
    # draws anywhere below the top level, at every lower level exactly, and
    # just below each level
    draws = np.concatenate(
        [
            rng.random(500) * levels[-1],
            levels[:-1],
            np.nextafter(levels, 0.0),
            [0.0],
        ]
    )
    assert draws.max() < levels[-1]
    lookup = effgravity.epidemics._levels_at_or_below(levels, draws)
    assert lookup.dtype == np.intp
    assert lookup.tobytes() == levels.searchsorted(draws, side="right").tobytes()


@pytest.mark.parametrize("sets", [0, 1, 63, 64, 65, 129])
def test_level_table_row_zero_is_every_set(sets):
    # tied betas, beta = 0 among them: row 0 holds the sets open at a draw
    # below every beta, which is all of them, and no bit past the last set
    rng = np.random.default_rng(sets)
    betas = rng.choice([0.0, 0.25, 0.25, 0.5, 1.0], size=sets)
    levels, open_sets = effgravity.epidemics._level_table(betas)
    words = -(-sets // 64)
    assert levels.tolist() == (sorted(set(betas.tolist())) or [0.0])
    assert open_sets.shape == (levels.size, words) and open_sets.dtype == np.uint64
    every_set = effgravity.epidemics._pack(np.ones(sets, dtype=bool), words)
    assert open_sets[0].tobytes() == every_set.tobytes()
    bits = effgravity.graph._bits(open_sets[:1], 64 * words)[0]
    assert bits[:sets].all() and not bits[sets:].any()


@pytest.mark.parametrize("kept", [1, 63, 64, 65, 129])
def test_phase_cut_clears_exactly_the_bits_past_the_kept_sets(kept):
    # four words of sets cut to the first kept sets: the words past the
    # kept sets' last go, and ANDing in the last word of row 0 of the kept
    # sets' level table clears the bits past kept in it
    rng = np.random.default_rng(kept)
    infected = rng.integers(0, 2**64, size=(7, 4), dtype=np.uint64)
    _, open_sets = effgravity.epidemics._level_table(rng.choice([0.0, 0.3, 0.6], size=kept))
    cut = np.ascontiguousarray(infected[:, : open_sets.shape[1]])
    cut[:, -1] &= open_sets[0, -1]
    before = effgravity.graph._bits(infected, 256)
    after = effgravity.graph._bits(cut, 64 * cut.shape[1])
    assert (after[:, :kept] == before[:, :kept]).all()
    assert not after[:, kept:].any()


@pytest.fixture
def gathers(monkeypatch):
    """Record each step of several levels as (view rows, levels, kept
    slots): the rows of the per-level view it built, and the level count
    and slot count of the level lookup that indexes that view."""
    records = []
    views = []
    epidemics = effgravity.epidemics
    lookup = epidemics._levels_at_or_below

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def bitwise_and(self, words, open_sets):
            view = np.bitwise_and(words, open_sets)
            views.append(view.shape[0] * view.shape[1])
            return view

    def recording_lookup(levels, draws):
        # each lookup reads the one view its step built just before
        assert len(views) == 1
        records.append((views.pop(), levels.size, draws.size))
        return lookup(levels, draws)

    monkeypatch.setattr(epidemics, "np", RecordingNumpy())
    monkeypatch.setattr(epidemics, "_levels_at_or_below", recording_lookup)
    yield records
    assert not views


def dense_graph_seed_sets(rng, n, p, sets, pool):
    # seed sets of one or two of the nodes 0 .. pool - 1
    graph = random_connected_graph(rng, n, p)
    seed_sets = [
        sorted(rng.choice(pool, size=int(rng.integers(1, 3)), replace=False).tolist())
        for _ in range(sets)
    ]
    return graph, seed_sets


@pytest.mark.parametrize("sets", [65, 127, 129])
@pytest.mark.parametrize("count", [2, 3, 5, 9])
def test_engine_level_view_matches_oracle_across_word_boundaries(gathers, count, sets):
    # a dense 40-node graph seeded from nodes 0 and 1: step 1 keeps fewer
    # slots than the view has rows, and once most nodes are reached a step
    # keeps at least three per row; every step builds the view and takes
    # each slot's row of it, and every word mixes the levels
    rng = np.random.default_rng(1000 * count + sets)
    graph, seed_sets = dense_graph_seed_sets(rng, 40, 0.9, sets, 2)
    levels = np.linspace(0.35, 0.95, count).tolist()
    betas = (levels * sets)[:sets]
    config = SIConfig(beta=levels[0], t_max=6, runs=3, seed=count)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas)
    assert counts[:, :, -1].max() > counts[:, :, 0].max()
    assert gathers
    assert all(size == count and rows == count * graph.n for rows, size, _ in gathers)
    assert any(kept < rows for rows, _, kept in gathers)
    assert any(kept >= 3 * rows for rows, _, kept in gathers)


def test_engine_many_levels_at_small_beta_match_oracle(gathers):
    # eight levels from 0.005 to 0.04: a step opens a few slots, far fewer
    # than the view's 8n rows, and still builds the view
    rng = np.random.default_rng(109)
    graph, seed_sets = dense_graph_seed_sets(rng, 24, 0.7, 100, 24)
    levels = np.linspace(0.005, 0.04, 8).tolist()
    betas = rng.choice(levels, size=100).tolist()
    config = SIConfig(beta=0.04, t_max=12, runs=4, seed=17)
    counts = assert_engine_matches_oracle(graph, seed_sets, config, betas)
    assert counts[:, :, -1].max() > counts[:, :, 0].max()
    assert gathers
    assert all(size == 8 and rows == 8 * graph.n for rows, size, _ in gathers)
    assert all(kept < rows for rows, _, kept in gathers)


def test_engine_phase_change_lowers_the_level_count(gathers):
    # four levels until step 2, when the 0.9 and 0.7 sets leave, then two
    # until step 4, when the 0.5 sets leave too; the view is built at four
    # levels and again at two, each from its phase's level table
    rng = np.random.default_rng(113)
    graph, seed_sets = dense_graph_seed_sets(rng, 24, 0.95, 130, 24)
    betas = rng.choice([0.3, 0.5, 0.7, 0.9], size=130).tolist()
    order = sorted(range(130), key=lambda index: betas[index])
    seed_sets = [seed_sets[index] for index in order]
    betas = [betas[index] for index in order]
    ends = [8 if beta == 0.3 else 4 if beta == 0.5 else 2 for beta in betas]
    config = SIConfig(beta=0.3, t_max=8, runs=4, seed=23)
    assert_engine_matches_oracle(graph, seed_sets, config, betas, ends)
    assert all(rows == size * graph.n for rows, size, _ in gathers)
    assert {size for _, size, _ in gathers} == {4, 2}


@st.composite
def si_cases(draw):
    # two blocks with no edge between them, so at least two components; in
    # half the cases each block is a path, whose long distances let a set
    # reach a node steps after another set's slot first touched it
    n = draw(st.integers(2, 10))
    split = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        edges = [(i, i + 1) for i in range(n - 1) if i + 1 != split]
    else:
        pairs = [
            (i, j)
            for block in (range(split), range(split, n))
            for i in block
            for j in block
            if i < j
        ]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # two or three seed sets from a pool of two or three nodes, each at a
    # beta of its own, cycled in runs of equal sets, up to 135 sets in all
    # and each distinct set at least once: nodes are reached by some sets
    # steps before others, runs of one or five mix betas within a 64-bit
    # word, and with runs of 64 one word can be saturated at a node while
    # another is not
    pool = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True))
    distinct = draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=1, unique=True), min_size=2, max_size=3)
    )
    beta = st.sampled_from([1.0, 0.9, 0.0]) | st.floats(0.0, 1.0)
    levels = draw(st.lists(beta, min_size=len(distinct), max_size=len(distinct), unique=True))
    run = draw(st.sampled_from([64, 1, 5]))
    least = run * (len(distinct) - 1) + 1
    picks = [index // run % len(distinct) for index in range(draw(st.integers(least, 135)))]
    seed_sets = [distinct[pick] for pick in picks]
    betas = [levels[pick] for pick in picks]
    # at least three steps: a slot whose bits the level table zeroes first
    # touches a node, another set infects it, and that set spreads on
    config = SIConfig(
        beta=levels[0],
        t_max=draw(st.integers(3, 10)),
        runs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32)),
    )
    # in half the cases the sets leave the pass in up to three tails, each
    # after a step of its own, and sets of one beta may end apart
    ends = None
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, len(seed_sets)), min_size=1, max_size=3)))
        last = draw(
            st.lists(
                st.integers(0, config.t_max), min_size=len(cuts) + 1, max_size=len(cuts) + 1
            )
        )
        last.sort(reverse=True)
        ends = [last[sum(cut <= index for cut in cuts)] for index in range(len(seed_sets))]
    return Graph.from_edges(n, edges), seed_sets, betas, config, ends


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(si_cases())
def test_shared_draw_engine_matches_per_seed_set_oracle(case):
    # up to 135 seed sets, so many cases span two or three 64-bit words per node
    graph, seed_sets, betas, config, ends = case
    assert_engine_matches_oracle(graph, seed_sets, config, betas, ends)
