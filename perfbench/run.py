"""End-to-end and per-layer benchmark of the ``effgravity`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed makes the workload's graph (a
numpy Barabasi-Albert or Erdos-Renyi graph, see graphs.py) and the CLI's
``--seed``; the program only ever sees the written edge list. Every
command runs as a user would run ``effgravity``, in a fresh interpreter
(perfbench/launch.py), one at a time.

The run keeps itself, its commands and probe.py on one CPU. probe.py
times a fixed piece of work on that CPU every 0.2 s; the mean of its
samples over a timed interval, divided by REFERENCE_SAMPLE_S, is the
host's slowdown in that interval. A host-adjusted time is the interval's
wall time divided by that slowdown: the time it would have taken on the
host at its reference speed. The raw wall time is printed beside it.

--trace 0 repeats the workload's commands until S seconds have passed
(at least once) and reports, as medians over those passes:
  adj_wall_s   host-adjusted wall time of one pass over the workload's commands
  peak_rss_mb  largest peak RSS of any command process in the pass
  setup_s      host-adjusted time to generate the graph, write its edge
               list and prepare the output check (median of all set-ups)

--trace 1 runs one untraced pass, then one pass with every layer's public
function wrapped in a span, and reports the per-layer numbers of
LAYER_METRICS from the traced pass. Span times are raw;
host.slowdown says how slow the host ran meanwhile. A layer the workload
never calls reads 0.

Every command's exit code and tables are checked (check.py); a command
that fails either way counts in ``failed``. The last line of standard
output is the JSON result; the lines before it say what was run, the
input's SHA-256 and failed_frac.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check
import graphs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCH = BENCH / "launch.py"
PROBE = BENCH / "probe.py"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_work"

# set-ups in each of two blocks, one before the passes and one after them:
# at least this many, and on for at least SETUP_BLOCK_S, so that each
# block's set-ups are adjusted by several probe samples
SETUP_REPEATS = 10
SETUP_BLOCK_S = 1.0
# probe.py's sample time on an uncontended core of the machine in README.md
# (its fastest samples there took 1.37-1.53 ms); a constant, so adjusted
# times from different runs and commits compare
REFERENCE_SAMPLE_S = 0.0014
# a sample whose wall time exceeds its CPU time by more than this was cut
# off by the command on its CPU and does not measure the host
PREEMPTED_S = 0.0005
# samples this close to a timed interval describe it too (set-ups are
# shorter than the sampling period)
PAD_S = 1.0
# a run must end within 180 s; no pass starts unless it can finish by then
DEADLINE_S = 165.0

ALL_MEASURES = ["dc", "bc", "cc", "ec", "pagerank", "gm", "effg"]
# the CLI's default tau-sweep grid, as tau_sweep.csv prints it
DEFAULT_BETA_GRID = ["0.2", "0.4", "0.6", "0.8", "1.0", "1.2", "1.4", "1.6"]
SPREAD_MEASURES = ["dc", "ec", "pagerank"]


@dataclass(frozen=True)
class Command:
    """One ``effgravity`` invocation; --input, --out (and --seed if seeded) are added."""

    argv: tuple[str, ...]
    seeded: bool
    check: Callable[[dict, check.Expected], list[str]]


@dataclass(frozen=True)
class Workload:
    generate: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]]
    connected: bool
    commands: tuple[Command, ...]


# Why these three: see perfbench/README.md. In short, profile-ba1000 is all
# all-pairs work (BFS, Dijkstra, Brandes); evaluate-ba198 is ~85%
# single-node SI seedings; spread-er20k is few large seed sets on a big
# sparse graph with the largest parse and no all-pairs work.
WORKLOADS = {
    "profile-ba1000": Workload(
        generate=lambda rng: graphs.barabasi_albert(1000, 5, rng),
        connected=True,
        commands=(
            Command(("stats",), False, check.check_stats),
            Command(
                ("rank", "--measures", ",".join(ALL_MEASURES)),
                False,
                lambda files, expected: check.check_rank(files, expected, ALL_MEASURES),
            ),
        ),
    ),
    "evaluate-ba198": Workload(
        generate=lambda rng: graphs.barabasi_albert(198, 14, rng),
        connected=True,
        commands=(
            Command(
                ("evaluate",),
                True,
                lambda files, expected: check.check_evaluate(
                    files, expected, ALL_MEASURES, DEFAULT_BETA_GRID, k=20
                ),
            ),
        ),
    ),
    "spread-er20k": Workload(
        generate=lambda rng: graphs.erdos_renyi(20_000, 80_000, rng),
        connected=False,
        commands=(
            Command(
                (
                    "spread", "--measures", ",".join(SPREAD_MEASURES), "--beta", "0.05",
                    "--t-max", "20", "--runs", "100", "--k", "100",
                ),
                True,
                lambda files, expected: check.check_spread(
                    files, expected, SPREAD_MEASURES, k=100, t_max=20
                ),
            ),
        ),
    ),
}

# (name, unit) of every per-layer metric, in the order they are printed
LAYER_METRICS = [
    ("graph.load_edge_list_s", "s"),
    ("graph.topology_stats_s", "s"),
    ("graph.hop_distances_s", "s"),
    ("effective_distance.matrix_s", "s"),
    ("effective_distance.matrix_mb", "MB"),
    ("centrality.dc_s", "s"),
    ("centrality.bc_s", "s"),
    ("centrality.cc_s", "s"),
    ("centrality.ec_s", "s"),
    ("centrality.pagerank_s", "s"),
    ("centrality.gm_s", "s"),
    ("centrality.effg_s", "s"),
    ("centrality.ec_iterations", "count"),
    ("centrality.pagerank_iterations", "count"),
    ("epidemics.spreading_power_s", "s"),
    ("epidemics.seedings", "count"),
    ("epidemics.seedings_per_s", "1/s"),
    ("epidemics.top_k_curves_s", "s"),
    ("epidemics.si_runs", "count"),
    ("epidemics.si_runs_per_s", "1/s"),
    ("evaluation.kendall_tau_s", "s"),
    ("evaluation.rank_vs_spread_s", "s"),
    ("evaluation.top_k_overlap_s", "s"),
    ("cli.import_s", "s"),
    ("cli.stats_s", "s"),
    ("cli.rank_s", "s"),
    ("cli.spread_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.self_s", "s"),
    ("trace.untraced_adj_s", "s"),
    ("trace.traced_adj_s", "s"),
    ("trace.overhead_adj_s", "s"),
    ("host.slowdown", "x"),
]


@dataclass
class Prepared:
    edges_path: Path
    sha256: str
    cli_seed: int
    expected: check.Expected
    reference: dict[str, str] | None


@dataclass
class Pass:
    windows: list[tuple[float, float]]  # (start, end) of each command, time.monotonic
    peak_rss_kb: int
    records: list[dict]  # launch.py's result per command, plus "command"
    failed: int

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows)


class Probe:
    """probe.py, sampling the speed of the CPU the run is pinned to."""

    def __init__(self, cpu: int, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(cpu), str(out)],
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("probe.py did not start")

    def stop(self) -> list[list[float]]:
        """End the probe and return its samples."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.out.is_file():
            return []
        return json.loads(self.out.read_text(encoding="utf-8"))


def slowdown(samples: list[list[float]], start: float, end: float) -> float:
    """Mean probe sample time around [start, end] over REFERENCE_SAMPLE_S."""
    walls = [
        wall
        for at, wall, cpu in samples
        if start - PAD_S <= at <= end + PAD_S and wall - cpu <= PREEMPTED_S
    ]
    if not walls:
        raise RuntimeError(f"no probe samples within {PAD_S} s of [{start:.3f}, {end:.3f}]")
    return statistics.fmean(walls) / REFERENCE_SAMPLE_S


def adjusted(samples: list[list[float]], windows: list[tuple[float, float]]) -> float:
    """Host-adjusted seconds of the intervals: each one's wall time over its slowdown."""
    return sum((end - start) / slowdown(samples, start, end) for start, end in windows)


def cli_seed(seed: int) -> int:
    """The CLI's --seed, derived from the workload seed apart from the graph's stream."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def load_reference(name: str, seed: int) -> dict | None:
    path = REFERENCE / name / f"seed-{seed}.json.gz"
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def setup(name: str, seed: int, work: Path) -> Prepared:
    """Generate the seeded graph, write its edge list, prepare the output check."""
    workload = WORKLOADS[name]
    u, v = workload.generate(np.random.default_rng(np.random.SeedSequence([seed, 0])))
    text = graphs.edge_list_text(u, v)
    edges_path = work / "graph.edges"
    edges_path.write_bytes(text)
    digest = hashlib.sha256(text).hexdigest()
    expected = check.Expected.from_edges(u, v, workload.connected)
    reference = load_reference(name, seed)
    tables = None
    if reference is not None:
        if reference["sha256"] == digest:
            tables = reference["tables"]
        else:
            print(
                f"note: reference for seed {seed} was made from input {reference['sha256']}, "
                f"this run generated {digest}; only structural checks apply",
                file=sys.stderr,
            )
    return Prepared(edges_path, digest, cli_seed(seed), expected, tables)


def machine(nproc: int) -> str:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package} absent")
    return (
        f"machine: nproc {nproc}, {cpu}, "
        f"python {platform.python_version()}, {', '.join(versions)}"
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # as many threads as CPUs the run may use: one, as it pins itself
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def launch(result: Path, trace: str, argv: list[str], timeout: float) -> tuple[tuple[float, float], dict | None, str]:
    """Run one command in a fresh interpreter; ((start, end), launch record, stderr)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), str(result), trace, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return (start, time.monotonic()), None, f"timed out after {timeout:.0f} s"
    window = (start, time.monotonic())
    if not result.is_file():
        return window, None, proc.stderr
    record = json.loads(result.read_text(encoding="utf-8"))
    record["exit_code"] = proc.returncode
    return window, record, proc.stderr


def command_argv(command: Command, prepared: Prepared, out: Path) -> list[str]:
    argv = [*command.argv, "--input", str(prepared.edges_path.relative_to(ROOT)), "--out", str(out.relative_to(ROOT))]
    if command.seeded:
        argv += ["--seed", str(prepared.cli_seed)]
    return argv


def run_pass(name: str, prepared: Prepared, trace: str, pass_dir: Path, deadline: float) -> Pass:
    windows = []
    peak = 0
    records = []
    failed = 0
    pass_dir.mkdir()
    for index, command in enumerate(WORKLOADS[name].commands):
        label = f"{index}-{command.argv[0]}"
        out = pass_dir / label
        argv = command_argv(command, prepared, out)
        window, record, stderr = launch(
            pass_dir / f"{label}.launch.json", trace, argv, max(deadline - time.monotonic(), 1.0)
        )
        windows.append(window)
        problems = []
        if record is None or record["exit_code"] != 0:
            problems.append(f"exit code {None if record is None else record['exit_code']}: {stderr.strip()[-500:]}")
        else:
            peak = max(peak, record["peak_rss_kb"])
            files = check.read_outputs(out)
            try:
                problems += command.check(files, prepared.expected)
            except (KeyError, ValueError, IndexError) as exc:
                problems.append(f"malformed output: {exc!r}")
            if prepared.reference is not None:
                prefix = f"{label}/"
                problems += check.compare_to_reference(
                    files,
                    {key[len(prefix):]: text for key, text in prepared.reference.items() if key.startswith(prefix)},
                )
            record["command"] = command.argv[0]
            records.append(record)
        if problems:
            failed += 1
            print(f"FAILED effgravity {' '.join(argv)}", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)
    return Pass(windows, peak, records, failed)


def layer_metrics(untraced: Pass, traced: Pass, samples: list[list[float]]) -> dict[str, float]:
    """Per-layer numbers of the traced pass (sums over its commands and calls)."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    values: dict[str, float] = defaultdict(float)
    for record in traced.records:
        top_level = 0.0
        for span in record["spans"]:
            duration = span["end"] - span["start"]
            seconds[span["name"]] += duration
            counts[span["name"]] += span.get("count", 0)
            if span["parent"] is None:
                top_level += duration
        values["cli.import_s"] += record["import_s"]
        values[f"cli.{record['command']}_s"] += record["command_s"]
        # computed: the command's own time outside every layer span
        values["cli.self_s"] += record["command_s"] - top_level
    for span_name, total in seconds.items():
        values[f"{span_name}_s"] = total
    values["effective_distance.matrix_mb"] = counts["effective_distance.matrix"] / 1e6
    values["centrality.ec_iterations"] = counts["centrality.ec"]
    values["centrality.pagerank_iterations"] = counts["centrality.pagerank"]
    for rate, base, span_name in (
        ("epidemics.seedings_per_s", "epidemics.seedings", "epidemics.spreading_power"),
        ("epidemics.si_runs_per_s", "epidemics.si_runs", "epidemics.top_k_curves"),
    ):
        values[base] = counts[span_name]
        values[rate] = counts[span_name] / seconds[span_name] if seconds[span_name] else 0.0
    values["trace.untraced_adj_s"] = adjusted(samples, untraced.windows)
    values["trace.traced_adj_s"] = adjusted(samples, traced.windows)
    values["trace.overhead_adj_s"] = values["trace.traced_adj_s"] - values["trace.untraced_adj_s"]
    # computed: wall time over host-adjusted time of the traced pass
    values["host.slowdown"] = traced.wall_s / values["trace.traced_adj_s"]
    return {name: values[name] for name, _ in LAYER_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "effgravity" / "cli.py").is_file():
        print(f"error: no effgravity sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # this process, its commands and the probe share one CPU
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    probe = None
    samples: list[list[float]] = []
    try:
        probe = Probe(cpu, work / "probe.json")
        setup_windows = []

        def timed_setup() -> Prepared:
            start = time.monotonic()
            prepared = setup(args.workload, args.seed, work)
            setup_windows.append((start, time.monotonic()))
            return prepared

        def setup_block() -> Prepared:
            started = time.monotonic()
            for repeat in itertools.count(1):
                prepared = timed_setup()
                if repeat >= SETUP_REPEATS and time.monotonic() - started >= SETUP_BLOCK_S:
                    return prepared

        prepared = setup_block()
        print(machine(len(cpus)) + f"; the run uses CPU {cpu}")
        print(
            f"{args.workload} seed {args.seed}: n={prepared.expected.n} m={prepared.expected.m} "
            f"edge list sha256 {prepared.sha256}, cli --seed {prepared.cli_seed}, "
            f"reference tables: {'yes' if prepared.reference else 'none for this seed'}"
        )
        # compile and cache the package's bytecode, as an installed package would have
        launch(work / "warmup.json", "0", ["--help"], max(deadline - time.monotonic(), 1.0))

        passes: list[Pass] = []
        started = time.monotonic()
        while True:
            trace = "1" if args.trace == "1" and passes else "0"
            passes.append(run_pass(args.workload, prepared, trace, work / f"pass-{len(passes)}", deadline))
            shutil.rmtree(work / f"pass-{len(passes) - 1}", ignore_errors=True)
            if args.trace == "1":
                if len(passes) == 2:
                    break
            elif time.monotonic() - started >= args.seconds:
                break
            if time.monotonic() + 1.5 * passes[-1].wall_s > deadline:
                break
        setup_block()
    finally:
        if probe is not None:
            samples = probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes) * len(WORKLOADS[args.workload].commands)
    failed = sum(p.failed for p in passes)
    print(f"failed_frac {failed / attempted:.4g} (base: {failed} of {attempted} commands failed)")
    if args.trace == "1":
        units = dict(LAYER_METRICS)
        metrics = layer_metrics(passes[0], passes[1], samples) if len(passes) == 2 else {}
    else:
        units = {"adj_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        adj_walls = [adjusted(samples, p.windows) for p in passes]
        adj_setups = [adjusted(samples, [window]) for window in setup_windows]
        metrics = {
            "adj_wall_s": statistics.median(adj_walls),
            "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) * 1024 / 1e6,
            "setup_s": statistics.median(adj_setups),
        }
        print(f"wall_s {statistics.median(p.wall_s for p in passes):.6g} s (raw, median over passes)")
        print(
            f"per pass: wall_s {', '.join(f'{p.wall_s:.3f}' for p in passes)}; "
            f"adj_wall_s {', '.join(f'{a:.3f}' for a in adj_walls)}"
        )
        print(
            f"per set-up: raw {', '.join(f'{end - start:.4f}' for start, end in setup_windows)}; "
            f"adjusted {', '.join(f'{a:.4f}' for a in adj_setups)}"
        )
    for name, value in metrics.items():
        computed = name in ("cli.self_s", "host.slowdown")
        print(f"{name} {value:.6g} {units[name]}" + (" (computed)" if computed else ""))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
