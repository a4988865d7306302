import argparse
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import effgravity.centrality
import effgravity.cli
import effgravity.effective_distance
from effgravity.cli import build_parser, main
from conftest import SEVEN_NODE_EDGE_LIST
from helpers import interpreter_env


@pytest.fixture
def seven_node_file(tmp_path):
    path = tmp_path / "seven.edges"
    path.write_text(SEVEN_NODE_EDGE_LIST)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_stats_on_triangle(tmp_path):
    edge_file = tmp_path / "triangle.edges"
    edge_file.write_text("1 2\n2 3\n1 3\n")
    out = tmp_path / "out"
    assert main(["stats", "--input", str(edge_file), "--out", str(out)]) == 0
    rows = read_csv(out / "stats.csv")
    record = dict(zip(rows[0], rows[1]))
    assert record["n"] == "3"
    assert record["m"] == "3"
    assert float(record["clustering"]) == 1.0
    assert (out / "config.json").exists()


def test_stats_json_format(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        ["stats", "--input", str(seven_node_file), "--out", str(out), "--format", "json"]
    ) == 0
    record = json.loads((out / "stats.json").read_text())
    assert record["n"] == 7
    assert record["m"] == 10


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["stats", "--input", str(tmp_path / "absent.edges"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "absent.edges" in capsys.readouterr().err


def test_unparseable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2 3\n")
    code = main(["stats", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_measure_is_usage_error(tmp_path, seven_node_file, capsys):
    # a name given twice is refused the same way, by every command that
    # takes --measures
    cases = [
        ("rank", "dc,bogus", "valid names"),
        ("rank", "dc,dc", "measures named more than once: dc"),
        ("spread", "dc, cc,dc", "measures named more than once: dc"),
        ("evaluate", "cc,dc,cc", "measures named more than once: cc"),
    ]
    for command, measures, message in cases:
        with pytest.raises(SystemExit) as info:
            main(
                [
                    command,
                    "--input", str(seven_node_file),
                    "--out", str(tmp_path / "o"),
                    "--measures", measures,
                ]
            )
        assert info.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_measure_list_is_usage_error(tmp_path, seven_node_file):
    with pytest.raises(SystemExit) as info:
        main(
            [
                "rank",
                "--input", str(seven_node_file),
                "--out", str(tmp_path / "o"),
                "--measures", ",",
            ]
        )
    assert info.value.code == 2


def test_rank_writes_golden_scores(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "rank",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc,effg",
        ]
    ) == 0
    dc_rows = read_csv(out / "scores_dc.csv")
    assert dc_rows[0] == ["node_label", "score", "rank"]
    by_label = {row[0]: float(row[1]) for row in dc_rows[1:]}
    assert by_label == {"1": 6.0, "2": 2.0, "3": 2.0, "4": 3.0, "5": 4.0, "6": 2.0, "7": 1.0}

    effg_rows = read_csv(out / "scores_effg.csv")
    scores = {row[0]: float(row[1]) for row in effg_rows[1:]}
    assert scores["2"] == pytest.approx(5.9104, abs=1e-3)
    assert scores["1"] == pytest.approx(6.5358, abs=1e-3)


def test_rank_table_spanning_several_row_chunks_matches_rows_one_at_a_time(tmp_path):
    # a random recursive tree on two full chunks of rows and a partial
    # third, with shuffled labels and many tied degrees
    from effgravity import compute_scores, load_edge_list, rank

    rng = np.random.default_rng(97)
    n = 2 * effgravity.cli._ROWS_PER_CHUNK + 37
    labels = [f"v{label}" for label in rng.permutation(n)]
    parents = [int(rng.integers(0, child)) for child in range(1, n)]
    edge_file = tmp_path / "tree.edges"
    edge_file.write_text(
        "".join(f"{labels[p]} {labels[c]}\n" for c, p in enumerate(parents, start=1))
    )
    out = tmp_path / "out"
    assert main(["rank", "--input", str(edge_file), "--out", str(out), "--measures", "dc"]) == 0
    graph, _ = load_edge_list(edge_file)
    sv = compute_scores(graph, ["dc"])["dc"]
    order = rank(sv)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["node_label", "score", "rank"])
        for position, node in enumerate(order, start=1):
            writer.writerow([graph.labels[node], float(sv.scores[node]), position])
    assert (out / "scores_dc.csv").read_bytes() == expected.read_bytes()


def test_rank_json_payload(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "rank",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc",
            "--format", "json",
        ]
    ) == 0
    payload = json.loads((out / "rank.json").read_text())
    assert payload["dc"]["ranking"][0] == "1"
    assert len(payload["dc"]["scores"]) == 7


def test_rank_nonconvergent_pagerank_exits_1(tmp_path, capsys):
    edge_file = tmp_path / "path3.edges"
    edge_file.write_text("a b\nb c\n")
    code = main(
        [
            "rank",
            "--input", str(edge_file),
            "--out", str(tmp_path / "o"),
            "--measures", "pagerank",
        ]
    )
    assert code == 1
    assert "damping" in capsys.readouterr().err


def test_rank_nonconvergent_ec_exits_1_and_names_the_workaround(tmp_path, capsys):
    # power iteration does not converge on a 299-node path within its 1000
    # steps; leaving ec out (and damping pagerank, as a path is bipartite)
    # ranks it
    edge_file = tmp_path / "path299.edges"
    edge_file.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 299)))
    argv = ["rank", "--input", str(edge_file), "--out", str(tmp_path / "o"), "--measures"]
    assert main(argv + ["ec"]) == 1
    assert "leave ec out of --measures" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(argv + ["dc,bc,cc,pagerank,gm,effg", "--damping", "0.85"]) == 0


def test_rank_damping_flag_rescues_bipartite(tmp_path):
    edge_file = tmp_path / "path3.edges"
    edge_file.write_text("a b\nb c\n")
    code = main(
        [
            "rank",
            "--input", str(edge_file),
            "--out", str(tmp_path / "o"),
            "--measures", "pagerank",
            "--damping", "0.85",
        ]
    )
    assert code == 0


def test_spread_beta_zero_constant_columns(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "spread",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc,cc",
            "--beta", "0",
            "--t-max", "4",
            "--runs", "6",
            "--seed", "3",
            "--k", "3",
        ]
    ) == 0
    rows = read_csv(out / "spread.csv")
    assert rows[0] == ["t", "F_dc", "F_cc"]
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[1]) == 3.0
        assert float(row[2]) == 3.0


def test_spread_protocol_defaults():
    from effgravity.cli import build_parser

    args = build_parser().parse_args(
        ["spread", "--input", "x.edges", "--out", "o"]
    )
    assert (args.beta, args.t_max, args.runs, args.k) == (0.2, 20, 50, 100)

    args = build_parser().parse_args(
        ["evaluate", "--input", "x.edges", "--out", "o"]
    )
    assert (args.t_max_sweep, args.t_max, args.runs, args.k) == (5, 20, 50, 20)
    assert args.tau_convention == "standard"
    assert args.beta_grid[0] == 0.2 and args.beta_grid[-1] == 1.6


def test_spread_is_deterministic_per_seed(tmp_path, seven_node_file):
    args = [
        "spread",
        "--input", str(seven_node_file),
        "--measures", "dc,gm",
        "--beta", "0.3",
        "--t-max", "5",
        "--runs", "10",
        "--seed", "42",
        "--k", "2",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "spread.csv").read_bytes() == (out_b / "spread.csv").read_bytes()


def test_spread_json_format(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "spread",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc",
            "--beta", "0",
            "--t-max", "3",
            "--runs", "4",
            "--k", "2",
            "--format", "json",
        ]
    ) == 0
    payload = json.loads((out / "spread.json").read_text())
    assert payload["t"] == [0, 1, 2, 3]
    assert payload["F_dc"] == [2.0, 2.0, 2.0, 2.0]


def test_spread_k_larger_than_graph_exits_2(tmp_path, seven_node_file, capsys):
    code = main(
        [
            "spread",
            "--input", str(seven_node_file),
            "--out", str(tmp_path / "o"),
            "--k", "100",
            "--measures", "dc",
        ]
    )
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_spread_config_echo_has_seed(tmp_path, seven_node_file):
    out = tmp_path / "out"
    main(
        [
            "spread",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc",
            "--seed", "9",
            "--k", "2",
        ]
    )
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 9
    assert config["command"] == "spread"
    assert config["k"] == 2


def test_evaluate_writes_three_tables(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "evaluate",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc,gm",
            "--beta-grid", "0.2,0.4",
            "--t-max-sweep", "3",
            "--t-max", "4",
            "--runs", "4",
            "--seed", "1",
            "--k", "3",
        ]
    ) == 0
    sweep = read_csv(out / "tau_sweep.csv")
    assert sweep[0] == ["measure", "beta", "tau"]
    assert len(sweep) == 1 + 2 * 2  # one row per (beta, measure)
    overlap = read_csv(out / "overlap.csv")
    assert overlap[0] == ["measure_a", "measure_b", "k", "shared"]
    assert len(overlap) == 2  # one unordered measure pair
    assert (out / "rank_vs_spread_dc.csv").exists()
    assert (out / "rank_vs_spread_gm.csv").exists()


def every_run_but(*skipped, runs=50):
    """Runs 0 .. runs - 1 without the ``skipped`` ones."""
    return [run for run in range(runs) if run not in skipped]


# the passes of the default grid's betas 0.4, 0.6 and 0.8 at t 5: each
# skips the runs that beta 0.2 or a lower sweep beta saturated by t 5
SWEEP_AT_5 = [
    (7, 0.4, 5, 50, [5], every_run_but()),
    (7, 0.6, 5, 50, [5], every_run_but(2, 6, 8, 10, 14, 16, 17, 20, 37, 43, 46)),
    (7, 0.8, 5, 50, [5], [0, 4, 12, 13, 19, 21, 24, 26, 28, 29, 34, 38, 42, 49]),
]


@pytest.mark.parametrize(
    "options, passes",
    [
        # the sweep's betas at t 5, one pass each, with beta 0.2 read again
        # at t 20; beta 1 takes one run, which a lower beta saturated by t 5
        (
            [],
            [(7, 0.2, 20, 50, [5, 20], every_run_but()), *SWEEP_AT_5, (7, 1.0, 5, 1, [5], [])],
        ),
        # a rank-vs-spread beta outside the grid is one more pass; what it
        # saturates by t 20 skips nothing at the sweep's t 5
        (
            ["--beta", "0.3"],
            [
                (7, 0.2, 5, 50, [5], every_run_but()),
                (7, 0.3, 20, 50, [20], every_run_but()),
                *SWEEP_AT_5,
                (7, 1.0, 5, 1, [5], []),
            ],
        ),
        # rank-vs-spread at beta 1 is read from the beta = 1 pass at t 20
        (
            ["--beta", "1.0"],
            [(7, 0.2, 5, 50, [5], every_run_but()), *SWEEP_AT_5, (7, 1.0, 20, 1, [5, 20], [])],
        ),
        # beta 0.2 is read at t 3 and at the sweep's longer t 9; every run
        # is saturated by t 9 at beta 0.6 or lower, so beta 0.8 runs none
        (
            ["--t-max", "3", "--t-max-sweep", "9"],
            [
                (7, 0.2, 9, 50, [3, 9], every_run_but()),
                (7, 0.4, 9, 50, [9], every_run_but(6, 10, 14, 25, 36, 37, 47)),
                (7, 0.6, 9, 50, [9], [4, 12, 28, 31, 34, 35, 41]),
                (7, 0.8, 9, 50, [9], []),
                (7, 1.0, 9, 1, [9], []),
            ],
        ),
    ],
    ids=["defaults", "beta-off-grid", "beta-one", "short-spread"],
)
def test_evaluate_makes_one_si_pass_per_group(seven_node_file, monkeypatch, options, passes):
    import effgravity.epidemics
    from effgravity import SIConfig, compute_scores, kendall_tau, rank, spreading_power

    argv = ["evaluate", "--input", str(seven_node_file), "--out", "unused", "--k", "3", *options]
    args = build_parser().parse_args(argv)
    seen = []
    engine = effgravity.epidemics._infected_counts

    def counted(graph, seed_masks, config, *, steps=None, runs=None):
        runs = list(runs)
        seen.append((len(seed_masks), config.beta, config.t_max, config.runs, steps, runs))
        return engine(graph, seed_masks, config, steps=steps, runs=runs)

    monkeypatch.setattr(effgravity.epidemics, "_infected_counts", counted)
    outputs = effgravity.cli.cmd_evaluate(args)
    # the seven nodes fit in one block: one pass per beta, each counting
    # infections only at the horizons read from it, and simulating only the
    # runs that no lower beta saturated by its first horizon
    assert seen == passes

    # the tables are those of one spreading_power call per distinct clamped
    # config and one kendall_tau call per (measure, beta)
    graph, _ = effgravity.parse_edge_list(seven_node_file.read_text())
    scores = compute_scores(graph, args.measures, damping=args.damping)
    clamped = [min(beta, 1.0) for beta in args.beta_grid]
    powers = {
        beta: spreading_power(graph, SIConfig(beta, args.t_max_sweep, args.runs, args.seed))
        for beta in set(clamped)
    }
    taus = {
        (name, beta): kendall_tau(sv.scores, power).tau
        for beta, power in powers.items()
        for name, sv in scores.items()
    }
    _, rows = outputs["tau_sweep.csv"]
    assert [(name, beta) for name, beta, _ in rows] == [
        (name, beta) for beta in args.beta_grid for name in args.measures
    ]
    want = [taus[name, beta] for beta in clamped for name in args.measures]
    assert np.array([tau for _, _, tau in rows]).tobytes() == np.array(want).tobytes()
    power = spreading_power(graph, SIConfig(args.beta, args.t_max, args.runs, args.seed))
    for name, sv in scores.items():
        _, rows = outputs[f"rank_vs_spread_{name}.csv"]
        order = rank(sv)
        assert [label for _, label, _ in rows] == [graph.labels[node] for node in order]
        assert np.array([mean for _, _, mean in rows]).tobytes() == power[order].tobytes()


def test_evaluate_keeps_the_requested_betas_above_one(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "evaluate",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc,cc",
            "--t-max-sweep", "2",
            "--t-max", "2",
            "--runs", "3",
            "--k", "2",
        ]
    ) == 0
    header, *rows = read_csv(out / "tau_sweep.csv")
    assert header == ["measure", "beta", "tau"]
    taus = {(name, float(beta)): tau for name, beta, tau in rows}
    assert [float(beta) for _, beta, _ in rows[::2]] == [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
    for name in ("dc", "cc"):
        for beta in (1.2, 1.4, 1.6):
            assert taus[name, beta] == taus[name, 1.0]


def test_evaluate_json_format(tmp_path, seven_node_file):
    out = tmp_path / "out"
    assert main(
        [
            "evaluate",
            "--input", str(seven_node_file),
            "--out", str(out),
            "--measures", "dc",
            "--beta-grid", "0.2",
            "--t-max-sweep", "2",
            "--t-max", "2",
            "--runs", "3",
            "--seed", "1",
            "--k", "2",
            "--format", "json",
        ]
    ) == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert {"tau_sweep", "overlap", "rank_vs_spread"} <= set(payload)
    assert payload["tau_sweep"][0]["measure"] == "dc"


def test_json_holds_the_csv_rows(tmp_path, seven_node_file):
    # evaluate.json has one record per CSV row and spread.json one column
    # per CSV header name, with the same values
    common = ["--input", str(seven_node_file), "--runs", "3", "--seed", "5", "--k", "2"]
    evaluate = ["evaluate", "--measures", "dc,bc,effg", "--beta-grid", "0.3,0.6,1.5"]
    evaluate += ["--t-max", "4"]
    spread = ["spread", "--measures", "cc,dc", "--beta", "0.4", "--t-max", "5"]
    for argv in (evaluate, spread):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{argv[0]}_{fmt}"
            assert main(argv + common + ["--format", fmt, "--out", str(out)]) == 0

    def values(header, records):
        assert all(list(record) == sorted(header) for record in records)
        return [[str(record[name]) for name in header] for record in records]

    payload = json.loads((tmp_path / "evaluate_json" / "evaluate.json").read_text())
    tables = {"tau_sweep": payload["tau_sweep"], "overlap": payload["overlap"]} | {
        f"rank_vs_spread_{name}": records for name, records in payload["rank_vs_spread"].items()
    }
    assert sorted(path.name for path in (tmp_path / "evaluate_csv").glob("*.csv")) == sorted(
        f"{name}.csv" for name in tables
    )
    for name, records in tables.items():
        header, *rows = read_csv(tmp_path / "evaluate_csv" / f"{name}.csv")
        assert rows and values(header, records) == rows

    header, *rows = read_csv(tmp_path / "spread_csv" / "spread.csv")
    columns = json.loads((tmp_path / "spread_json" / "spread.json").read_text())
    assert len(rows) == 6 and sorted(columns) == sorted(header)
    records = [dict(sorted(zip(columns, row))) for row in zip(*columns.values())]
    assert values(header, records) == rows


SMALL_RUNS = {
    "stats": [],
    "rank": ["--measures", "dc,effg"],
    "spread": ["--measures", "dc,effg", "--k", "2", "--runs", "2", "--t-max", "2"],
    "evaluate": [
        "--measures", "dc,effg", "--beta-grid", "0.2", "--runs", "2",
        "--t-max", "2", "--t-max-sweep", "2", "--k", "2",
    ],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_config_records_every_option(tmp_path, seven_node_file, command):
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    dests = {action.dest for action in subparsers.choices[command]._actions}
    out = tmp_path / "out"
    argv = [command, "--input", str(seven_node_file), "--out", str(out)]
    assert main(argv + SMALL_RUNS[command]) == 0
    config = json.loads((out / "config.json").read_text())
    assert set(config) == (dests - {"help", "out"}) | {"command", "version"}
    assert config["command"] == command


@pytest.mark.parametrize("command", ["rank", "spread", "evaluate"])
def test_effg_builds_no_distance_matrix(tmp_path, seven_node_file, monkeypatch, command):
    def refuse(graph):
        raise AssertionError("the n x n effective-distance matrix was built")

    monkeypatch.setattr(effgravity.effective_distance, "effective_distance_matrix", refuse)
    monkeypatch.setattr(effgravity.cli, "effective_distance_matrix", refuse, raising=False)
    argv = [command, "--input", str(seven_node_file), "--out", str(tmp_path / "out")]
    assert main(argv + SMALL_RUNS[command]) == 0


# --k fits the graph where it is given, so only the named argument is wrong;
# a bad --beta-grid is refused earlier, by the parser
@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--beta", "1.5", "--k", "2"],
        ["evaluate", "--t-max", "-1", "--k", "2"],
        ["spread", "--beta", "-0.2", "--k", "2"],
        ["spread", "--runs", "0", "--k", "2"],
        ["rank", "--measures", "dc", "--damping", "nan"],
        ["rank", "--damping", "2"],
        ["spread", "--damping", "0", "--k", "2"],
        ["evaluate", "--damping", "-0.5", "--k", "2"],
        ["spread", "--k", "0"],
        ["evaluate", "--k", "-1"],
        ["evaluate", "--k", "0"],
        ["spread", "--beta", "nan", "--k", "2"],
        ["evaluate", "--t-max-sweep", "-1", "--k", "2"],
    ],
)
def test_bad_si_arguments_fail_before_any_work(tmp_path, seven_node_file, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("scores computed before the arguments were checked")

    # the commands import compute_scores from centrality when they run
    monkeypatch.setattr(effgravity.centrality, "compute_scores", refuse)
    out = tmp_path / "out"
    argv += ["--input", str(seven_node_file), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.2,inf", "beta grid values must be finite"),
        ("1e400", "beta grid values must be finite"),
        ("-inf,0.5", "beta grid values must be finite"),
        ("0.2,-1", "beta must be >= 0, got -1.0"),
        ("0.2,nan", "beta must be >= 0, got nan"),
    ],
    ids=["0.2,inf", "1e400", "-inf,0.5", "0.2,-1", "0.2,nan"],
)
def test_non_finite_or_negative_beta_grid_is_usage_error(
    tmp_path, seven_node_file, monkeypatch, capsys, grid, message
):
    # an infinite beta clamped to 1 would run, and config.json would hold
    # Infinity; NaN and negative betas are no probability
    def refuse(*args, **kwargs):
        raise AssertionError("the input was read before the beta grid was checked")

    monkeypatch.setattr(effgravity.cli, "load_edge_list", refuse)
    out = tmp_path / "out"
    argv = ["evaluate", f"--beta-grid={grid}", "--input", str(seven_node_file), "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.2,abc", "bad beta grid '0.2,abc'"),
        ("", "beta grid must contain at least one value"),
        (" , ", "beta grid must contain at least one value"),
    ],
    ids=["not-a-number", "empty", "only-separators"],
)
def test_unreadable_beta_grid_is_usage_error(
    tmp_path, seven_node_file, monkeypatch, capsys, grid, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("the input was read before the beta grid was checked")

    monkeypatch.setattr(effgravity.cli, "load_edge_list", refuse)
    out = tmp_path / "out"
    argv = ["evaluate", f"--beta-grid={grid}", "--input", str(seven_node_file), "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_k_above_the_node_count_fails_before_any_work(
    tmp_path, seven_node_file, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("scores computed for a k the graph cannot hold")

    monkeypatch.setattr(effgravity.centrality, "compute_scores", refuse)
    out = tmp_path / "out"
    argv = ["evaluate", "--input", str(seven_node_file), "--out", str(out), "--k", "8"]
    assert main(argv + ["--measures", "dc"]) == 2
    assert "k=8 exceeds the graph's 7 nodes" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # one node once the loop is dropped, which evaluate refuses
    edge_file = tmp_path / "loop.edges"
    edge_file.write_text("a a\n")
    out = tmp_path / "out"
    code = main(
        [
            "evaluate",
            "--input", str(edge_file),
            "--out", str(out),
            "--measures", "dc",
            "--k", "1",
            "--beta-grid", "0.2",
            "--runs", "1",
        ]
    )
    assert code == 2
    assert "need at least two elements" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_single_node_graph_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("scores computed for a graph too small to evaluate")

    monkeypatch.setattr(effgravity.centrality, "compute_scores", refuse)
    edge_file = tmp_path / "loop.edges"
    edge_file.write_text("a a\n")
    out = tmp_path / "out"
    argv = ["evaluate", "--input", str(edge_file), "--out", str(out), "--k", "1", "--measures", "dc"]
    assert main(argv) == 2
    assert "got 1 node" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_reports_clamped_betas_as_one_note(tmp_path, seven_node_file):
    # through a real interpreter, where a library warning would print the
    # file and line it came from
    argv = [
        "evaluate", "--input", str(seven_node_file), "--out", str(tmp_path / "out"),
        "--measures", "dc,cc", "--runs", "2", "--t-max", "2", "--k", "2",
    ]
    script = "import sys; from effgravity.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "note: beta values [1.2, 1.4, 1.6] exceed 1 and were clamped to 1\n"


def test_beta_grid_over_one_is_clamped_with_a_note(seven_node_file, capsys):
    # the parser keeps betas over 1; evaluate clamps them, names them in one
    # note line and no warning (the suite turns warnings into errors), and
    # its table keeps the requested values
    assert effgravity.cli._parse_beta_grid("0.2,1.0,1.6,3") == [0.2, 1.0, 1.6, 3.0]
    argv = [
        "evaluate", "--input", str(seven_node_file), "--out", "unused", "--measures", "dc",
        "--runs", "2", "--t-max", "2", "--t-max-sweep", "2", "--k", "2",
    ]
    notes = {
        "0.2,1.0,1.6,3": "note: beta values [1.6, 3.0] exceed 1 and were clamped to 1\n",
        "0.2,1": "",
    }
    for grid, note in notes.items():
        args = build_parser().parse_args(argv + ["--beta-grid", grid])
        _, rows = effgravity.cli.cmd_evaluate(args)["tau_sweep.csv"]
        assert capsys.readouterr().err == note
        assert [beta for _, beta, _ in rows] == args.beta_grid


def test_module_runs_the_command_like_the_console_script(tmp_path, seven_node_file):
    # python -m effgravity.cli runs the command and exits with its code
    argv = [sys.executable, "-m", "effgravity.cli", "stats", "--input"]
    out = tmp_path / "out"
    result = subprocess.run(
        argv + [str(seven_node_file), "--out", str(out)],
        env=interpreter_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert read_csv(out / "stats.csv")[1][:2] == ["7", "10"]
    result = subprocess.run(
        argv + [str(tmp_path / "absent.edges"), "--out", str(tmp_path / "absent")],
        env=interpreter_env(), capture_output=True, text=True,
    )
    assert result.returncode == 2 and "absent.edges" in result.stderr


def test_cli_import_does_not_pull_scipy(tmp_path):
    # each of these raises a CLI process's peak RSS: scipy roughly doubles
    # it, hashlib loads OpenSSL (3.7 MB) and numpy.ma, which np.unique
    # imports on first use, adds 1.6 MB. No module the CLI imports may bring
    # in scipy, and stats and rank, which draw no random numbers, load none
    # of them; numpy.random itself loads hashlib, through secrets and hmac
    env = interpreter_env()
    check = "import sys, effgravity.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

    edge_file = tmp_path / "seven.edges"
    edge_file.write_text(SEVEN_NODE_EDGE_LIST)
    check = f"""
import sys
from effgravity.cli import main
for command in ("stats", "rank"):
    assert main([command, "--input", {str(edge_file)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
loaded = {{"scipy", "hashlib", "numpy.ma"}} & set(sys.modules)
assert not loaded, sorted(loaded)
"""
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


LAYERS = ["effgravity", "effgravity.cli", "effgravity.graph"]


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("stats", LAYERS),
        ("rank", LAYERS + ["effgravity.centrality", "effgravity.effective_distance"]),
        (
            "spread",
            LAYERS + ["effgravity.centrality", "effgravity.effective_distance", "effgravity.epidemics"],
        ),
        (
            "evaluate",
            LAYERS
            + [
                "effgravity.centrality",
                "effgravity.effective_distance",
                "effgravity.epidemics",
                "effgravity.evaluation",
            ],
        ),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, seven_node_file, command, loaded):
    # every module a short CLI process imports is compiled and run at start-up
    argv = [command, "--input", str(seven_node_file), "--out", str(tmp_path / "out")]
    check = f"""
import sys
from effgravity.cli import main
assert main({argv + SMALL_RUNS[command]!r}) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "effgravity"))
"""
    result = subprocess.run(
        [sys.executable, "-c", check], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{sorted(loaded)}\n"


@pytest.mark.parametrize(
    "command, named",
    [
        ("rank", "from: dc, bc, cc, ec, pagerank, gm, effg"),
        ("evaluate", "--tau-convention {standard,ordered-pairs}"),
    ],
    ids=["rank", "evaluate"],
)
def test_help_names_every_choice_without_loading_its_layer(command, named):
    # the names come from the package itself; argparse wraps the text to
    # the terminal's width, so the check joins its lines
    check = f"""
import contextlib, io, sys
from effgravity.cli import main
text = io.StringIO()
with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
    main([{command!r}, "--help"])
print(" ".join(text.getvalue().split()))
print(sorted(name for name in sys.modules if name.split(".")[0] == "effgravity"))
"""
    result = subprocess.run(
        [sys.executable, "-c", check], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    text, loaded = result.stdout.splitlines()
    assert named in text
    assert loaded == str(sorted(LAYERS))


def test_evaluation_compares_rankings_without_the_si_layer():
    # the evaluation layer scores given vectors; the SI runs and the
    # measures are the caller's, and node orders are plain arrays
    check = """
import sys
import effgravity.evaluation
assert effgravity.evaluation.kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]).tau == 1 / 3
for layer in ("epidemics", "centrality", "effective_distance"):
    assert f"effgravity.{layer}" not in sys.modules, sorted(sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", check], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_epidemics_simulates_without_the_measures():
    # the SI layer takes seed sets and node orders, which are plain arrays
    check = """
import sys
import effgravity.epidemics as si
from effgravity.graph import Graph
graph = Graph.from_edges(3, [(0, 1), (1, 2)])
curves = si.simulate_si(graph, [1], si.SIConfig(beta=1.0, t_max=2, runs=2, seed=0))
assert curves.tolist() == [[1, 3, 3], [1, 3, 3]], curves
for layer in ("centrality", "effective_distance", "evaluation"):
    assert f"effgravity.{layer}" not in sys.modules, sorted(sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", check], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_stats_makes_no_gravity_sums(tmp_path, seven_node_file, monkeypatch):
    import effgravity.graph

    calls = []
    original = effgravity.graph.gravity_sums

    def counted(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(effgravity.graph, "gravity_sums", counted)
    argv = ["--input", str(seven_node_file), "--out", str(tmp_path / "out")]
    for fmt in ("csv", "json"):
        assert main(["stats", *argv, "--format", fmt]) == 0
    assert calls == []
    # the stand-in does see the hop pass of the measures, all 7 rows at once
    assert main(["rank", *argv, "--measures", "gm"]) == 0
    assert calls == [7]
