import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effgravity.cli
import effgravity.effective_distance
from effgravity.cli import build_parser, main
from conftest import SEVEN_NODE_EDGE_LIST


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


# --k fits the graph where it is given, so only the named argument is wrong
@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--beta", "1.5", "--k", "2"],
        ["evaluate", "--t-max", "-1", "--k", "2"],
        ["evaluate", "--beta-grid", "0.2,-1", "--k", "2"],
        ["spread", "--runs", "0", "--k", "2"],
        ["rank", "--measures", "dc", "--damping", "nan"],
        ["rank", "--damping", "2"],
        ["spread", "--damping", "0", "--k", "2"],
        ["evaluate", "--damping", "-0.5", "--k", "2"],
        ["spread", "--k", "0"],
        ["evaluate", "--k", "-1"],
        ["evaluate", "--k", "0"],
        ["evaluate", "--beta-grid", "0.2,nan", "--k", "2"],
    ],
)
def test_bad_si_arguments_fail_before_any_work(tmp_path, seven_node_file, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("scores computed before the arguments were checked")

    monkeypatch.setattr(effgravity.cli, "compute_scores", refuse)
    out = tmp_path / "out"
    argv += ["--input", str(seven_node_file), "--out", str(out)]
    assert main(argv) == 2
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

    monkeypatch.setattr(effgravity.cli, "compute_scores", refuse)
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
    env = dict(os.environ)
    package_root = str(Path(effgravity.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = [
        "evaluate", "--input", str(seven_node_file), "--out", str(tmp_path / "out"),
        "--measures", "dc,cc", "--runs", "2", "--t-max", "2", "--k", "2",
    ]
    script = "import sys; from effgravity.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "note: beta values [1.2, 1.4, 1.6] exceed 1 and were clamped to 1\n"


def test_cli_import_does_not_pull_scipy(tmp_path):
    # each of these raises a CLI process's peak RSS: scipy roughly doubles
    # it, hashlib loads OpenSSL (3.7 MB) and numpy.ma, which np.unique
    # imports on first use, adds 1.6 MB. No module the CLI imports may bring
    # in scipy, and stats and rank, which draw no random numbers, load none
    # of them; numpy.random itself loads hashlib, through secrets and hmac
    env = dict(os.environ)
    package_root = str(Path(effgravity.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
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
