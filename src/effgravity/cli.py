"""Command-line front end: stats, rank, spread, evaluate.

Every command reads one edge-list file and returns its tables as data.
:func:`main` alone creates the output directory, once the command has
succeeded, writes the tables there, and drops a ``config.json`` beside them
with the fully resolved parameters (including the master seed) so any
output can be reproduced byte for byte. Exit codes: 0 success, 1
computation error such as non-convergence, 2 usage or I/O error.

A command imports the layers beyond ``graph`` when it runs, so each
short-lived process loads and compiles only the modules its command uses.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from . import MEASURES, TAU_CONVENTIONS, ConvergenceError, __version__
from .graph import Graph, ParseError, load_edge_list, topology_stats

if TYPE_CHECKING:
    from .centrality import ScoreVector

DEFAULT_BETA = 0.2
DEFAULT_BETA_GRID = "0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6"
DEFAULT_SPREAD_T_MAX = 20
DEFAULT_SWEEP_T_MAX = 5
DEFAULT_RUNS = 50
DEFAULT_SPREAD_K = 100
DEFAULT_OVERLAP_K = 20
# rows of a score table made into Python objects at a time
_ROWS_PER_CHUNK = 4096

# A command's output files by name: (header, rows) for a .csv file, the
# payload itself for a .json file. Rows may be a generator, which main
# consumes while it writes the file.
Outputs = dict[str, Any]


def _parse_measures(value: str) -> list[str]:
    names = [token.strip() for token in value.split(",") if token.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            f"no measures given; valid names are {', '.join(MEASURES)}"
        )
    unknown = [name for name in names if name not in MEASURES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown measures {', '.join(unknown)}; valid names are {', '.join(MEASURES)}"
        )
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"measures named more than once: {', '.join(repeated)}")
    return names


def _parse_beta_grid(value: str) -> list[float]:
    try:
        betas = [float(token) for token in value.split(",") if token.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad beta grid {value!r}: {exc}") from exc
    if not betas:
        raise argparse.ArgumentTypeError("beta grid must contain at least one value")
    # clamping would make an infinite beta 1, but config.json would record it
    # as Infinity, which strict JSON cannot read
    if any(math.isinf(beta) for beta in betas):
        raise argparse.ArgumentTypeError(f"beta grid values must be finite, got {value!r}")
    for beta in betas:
        if not beta >= 0.0:  # NaN included
            raise argparse.ArgumentTypeError(f"beta must be >= 0, got {beta}")
    return betas


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _records(header: Sequence[str], rows) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _load_graph(args: argparse.Namespace) -> Graph:
    graph, report = load_edge_list(args.input)
    if report.loops_dropped or report.duplicates_merged:
        print(
            f"note: dropped {report.loops_dropped} self-loop(s), "
            f"merged {report.duplicates_merged} duplicate edge(s)",
            file=sys.stderr,
        )
    return graph


def _check_damping(args: argparse.Namespace) -> None:
    if not 0.0 < args.damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {args.damping}")


def _check_k(args: argparse.Namespace) -> None:
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")


def _scores(
    graph: Graph, args: argparse.Namespace
) -> tuple[Mapping[str, ScoreVector], dict[str, np.ndarray]]:
    """The requested measures' scores and node orders, in the order requested."""
    from .centrality import compute_scores, rank

    scores = compute_scores(graph, args.measures, damping=args.damping)
    return scores, {name: rank(sv) for name, sv in scores.items()}


def _score_rows(graph: Graph, sv: ScoreVector, order: np.ndarray):
    # lazy, so main holds one measure's rows at a time, not all of them;
    # tolist makes the Python floats in one call per chunk, so a large table
    # never holds all its rows as Python objects. A rank is the row's
    # position, 1 .. n.
    for start in range(0, order.size, _ROWS_PER_CHUNK):
        chunk = order[start : start + _ROWS_PER_CHUNK]
        yield from zip(
            map(graph.labels.__getitem__, chunk.tolist()),
            sv.scores.take(chunk).tolist(),
            range(start + 1, start + chunk.size + 1),
        )


def cmd_stats(args: argparse.Namespace) -> Outputs:
    record = asdict(topology_stats(_load_graph(args)))
    if args.format == "json":
        return {"stats.json": record}
    row = ["nan" if value is None else value for value in record.values()]
    return {"stats.csv": (list(record), [row])}


def cmd_rank(args: argparse.Namespace) -> Outputs:
    _check_damping(args)
    graph = _load_graph(args)
    scores, rankings = _scores(graph, args)
    if args.format == "json":
        payload = {
            name: {
                "scores": sv.scores.tolist(),
                "ranking": list(map(graph.labels.__getitem__, rankings[name].tolist())),
                "metadata": sv.metadata,
            }
            for name, sv in scores.items()
        }
        return {"rank.json": payload}
    return {
        f"scores_{name}.csv": (["node_label", "score", "rank"], _score_rows(graph, sv, rankings[name]))
        for name, sv in scores.items()
    }


def cmd_spread(args: argparse.Namespace) -> Outputs:
    from .epidemics import SIConfig, top_k_infection_curves

    _check_damping(args)
    _check_k(args)
    config = SIConfig(beta=args.beta, t_max=args.t_max, runs=args.runs, seed=args.seed)
    graph = _load_graph(args)
    if args.k > graph.n:
        raise ValueError(f"k={args.k} exceeds the graph's {graph.n} nodes")
    # only the rankings: the score vectors are freed before the SI pass
    rankings = _scores(graph, args)[1]
    curves = top_k_infection_curves(
        graph, [(name, rankings[name]) for name in args.measures], args.k, config
    )
    header = ["t"] + [f"F_{name}" for name in args.measures]
    rows = [[t] + [float(curves[name][t]) for name in args.measures] for t in range(args.t_max + 1)]
    if args.format == "json":
        return {"spread.json": dict(zip(header, zip(*rows)))}
    return {"spread.csv": (header, rows)}


def cmd_evaluate(args: argparse.Namespace) -> Outputs:
    from .epidemics import SIConfig, spreading_powers
    from .evaluation import _kendall_taus, rank_vs_spread, top_k_overlap

    _check_damping(args)
    _check_k(args)
    spread_config = SIConfig(beta=args.beta, t_max=args.t_max, runs=args.runs, seed=args.seed)
    # the grid parser let through only finite betas >= 0
    clamped = [min(beta, 1.0) for beta in args.beta_grid]
    over = [beta for beta in args.beta_grid if beta > 1.0]
    # one SI config per distinct clamped beta: betas that clamp together share it
    distinct = list(dict.fromkeys(clamped))
    sweep_configs = [SIConfig(beta, args.t_max_sweep, args.runs, args.seed) for beta in distinct]
    graph = _load_graph(args)
    if graph.n < 2:
        raise ValueError(f"need at least two elements to compare rankings, got {graph.n} node(s)")
    if args.k > graph.n:
        raise ValueError(f"k={args.k} exceeds the graph's {graph.n} nodes")
    scores, rankings = _scores(graph, args)

    if over:
        print(f"note: beta values {over} exceed 1 and were clamped to 1", file=sys.stderr)
    # one spreading_powers call serves the sweep and the rank-vs-spread tables
    *powers, power = spreading_powers(graph, sweep_configs + [spread_config])
    # every measure against each distinct beta's powers, in one batched call
    pairs = {
        (beta, name): (scores[name].scores, beta_power)
        for beta, beta_power in zip(distinct, powers)
        for name in args.measures
    }
    comparisons = _kendall_taus(list(pairs.values()), args.tau_convention)
    taus = {key: comparison.tau for key, comparison in zip(pairs, comparisons)}
    # the table keeps the requested betas; rows run (beta, measure)
    sweep_rows = [
        (name, requested, taus[beta, name])
        for requested, beta in zip(args.beta_grid, clamped)
        for name in args.measures
    ]

    overlap_rows = []
    for i, name_a in enumerate(args.measures):
        for name_b in args.measures[i + 1 :]:
            shared = top_k_overlap(rankings[name_a], rankings[name_b], args.k)
            overlap_rows.append((name_a, name_b, args.k, shared))

    # one (header, rows) table per output; the JSON is made from the same rows
    tables = {
        "tau_sweep": (["measure", "beta", "tau"], sweep_rows),
        "overlap": (["measure_a", "measure_b", "k", "shared"], overlap_rows),
    }
    spread_tables = {}
    for name in args.measures:
        table = rank_vs_spread(rankings[name], power)
        rows = [(position, graph.labels[node], mean_final) for position, node, mean_final in table]
        spread_tables[name] = (["rank", "node_label", "mean_final"], rows)

    if args.format == "json":
        payload = {key: _records(*table) for key, table in tables.items()}
        payload["rank_vs_spread"] = {name: _records(*table) for name, table in spread_tables.items()}
        return {"evaluate.json": payload}
    return {f"{key}.csv": table for key, table in tables.items()} | {
        f"rank_vs_spread_{name}.csv": table for name, table in spread_tables.items()
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effgravity",
        description="Rank influential network nodes and evaluate rankings "
        "with susceptible-infected spreading simulations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--input", required=True, help="edge-list file to analyze")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )

    def add_measures(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--measures",
            type=_parse_measures,
            default=list(MEASURES),
            help=f"comma-separated measures, from: {', '.join(MEASURES)}",
        )
        sub.add_argument(
            "--damping",
            type=float,
            default=1.0,
            help="pagerank damping; 1.0 is the undamped update",
        )

    sub = subparsers.add_parser("stats", help="topology statistics")
    add_common(sub)
    sub.set_defaults(func=cmd_stats)

    sub = subparsers.add_parser("rank", help="score and rank nodes per measure")
    add_common(sub)
    add_measures(sub)
    sub.set_defaults(func=cmd_rank)

    sub = subparsers.add_parser(
        "spread", help="seed each measure's top-k nodes and record infection curves"
    )
    add_common(sub)
    add_measures(sub)
    sub.add_argument("--beta", type=float, default=DEFAULT_BETA)
    sub.add_argument("--t-max", type=int, default=DEFAULT_SPREAD_T_MAX)
    sub.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--k", type=int, default=DEFAULT_SPREAD_K)
    sub.set_defaults(func=cmd_spread)

    sub = subparsers.add_parser(
        "evaluate",
        help="tau-vs-beta sweep, pairwise top-k overlap, and rank-vs-spread tables",
    )
    add_common(sub)
    add_measures(sub)
    sub.add_argument(
        "--beta", type=float, default=DEFAULT_BETA, help="beta for rank-vs-spread"
    )
    sub.add_argument(
        "--beta-grid",
        type=_parse_beta_grid,
        default=_parse_beta_grid(DEFAULT_BETA_GRID),
        help="comma-separated betas for the tau sweep (values > 1 are clamped)",
    )
    sub.add_argument(
        "--t-max", type=int, default=DEFAULT_SPREAD_T_MAX, help="horizon for rank-vs-spread"
    )
    sub.add_argument(
        "--t-max-sweep", type=int, default=DEFAULT_SWEEP_T_MAX, help="horizon for the tau sweep"
    )
    sub.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--k", type=int, default=DEFAULT_OVERLAP_K)
    sub.add_argument(
        "--tau-convention", choices=TAU_CONVENTIONS, default="standard"
    )
    sub.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            if name.endswith(".csv"):
                _write_csv(out / name, *content)
            else:
                _write_json(out / name, content)
        config = {key: value for key, value in vars(args).items() if key not in ("func", "out")}
        _write_json(out / "config.json", config | {"version": __version__})
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
