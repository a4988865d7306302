"""Run one ``effgravity`` command in this fresh interpreter and report on it.

    python3 perfbench/launch.py RESULT_JSON TRACE CLI_ARG...

Equivalent to the ``effgravity`` console script with CLI_ARG..., using the
package under ``src/`` next to this directory. Afterwards it writes
RESULT_JSON with the exit code, the import and command times, and the
process's own peak RSS (VmHWM, which starts afresh at exec, so the memory
of whatever launched this process is not counted).

With TRACE=1 the public function of every layer is wrapped before the
command runs, and each call is kept as a span (name, start, end, parent,
and a count where the layer has one); the spans go into RESULT_JSON at the
end. With TRACE=0 nothing is wrapped.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, function, span name); the count, if any, comes from COUNTS
TRACED = [
    ("graph", "load_edge_list", "graph.load_edge_list"),
    ("graph", "topology_stats", "graph.topology_stats"),
    ("graph", "hop_distances", "graph.hop_distances"),
    ("effective_distance", "effective_distance_matrix", "effective_distance.matrix"),
    ("centrality", "degree_centrality", "centrality.dc"),
    ("centrality", "betweenness_centrality", "centrality.bc"),
    ("centrality", "closeness_centrality", "centrality.cc"),
    ("centrality", "eigenvector_centrality", "centrality.ec"),
    ("centrality", "pagerank", "centrality.pagerank"),
    ("centrality", "gravity_centrality", "centrality.gm"),
    ("centrality", "effg_centrality", "centrality.effg"),
    ("epidemics", "spreading_power", "epidemics.spreading_power"),
    ("epidemics", "top_k_infection_curves", "epidemics.top_k_curves"),
    ("evaluation", "kendall_tau", "evaluation.kendall_tau"),
    ("evaluation", "rank_vs_spread", "evaluation.rank_vs_spread"),
    ("evaluation", "top_k_overlap", "evaluation.top_k_overlap"),
]

# span name -> count of work done by one call, from its arguments and result
COUNTS = {
    "effective_distance.matrix": lambda args, result: result.nbytes,
    "centrality.ec": lambda args, result: result.metadata["iterations"],
    "centrality.pagerank": lambda args, result: result.metadata["iterations"],
    # spreading_power(graph, config): one ensemble of config.runs per node
    "epidemics.spreading_power": lambda args, result: args[0].n * args[1].runs,
    # top_k_infection_curves(graph, rankings, k, config): one ensemble per measure
    "epidemics.top_k_curves": lambda args, result: len(args[1]) * args[3].runs,
}


def install_tracing(spans: list) -> None:
    """Replace every module-level binding of a traced function with a span recorder."""
    stack: list[int] = []

    def wrap(function, name):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(len(spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["count"] = count(args, result)
            return result

        return traced

    modules = {
        name: importlib.import_module(f"effgravity.{name}")
        for name in ("graph", "effective_distance", "centrality", "epidemics", "evaluation", "cli")
    }
    wrappers = {}
    for module, function, name in TRACED:
        original = getattr(modules[module], function)
        wrappers[id(original)] = (original, wrap(original, name))
    for module in list(modules.values()) + [sys.modules["effgravity"]]:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(result_path: str, trace: str, argv: list[str]) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from effgravity import cli

    imported = time.perf_counter()
    if cli.__file__ is None or not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported effgravity from {cli.__file__}, not from {SRC}")
    spans: list = []
    if trace == "1":
        install_tracing(spans)
    command_start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finished = time.perf_counter()
    record = {
        "exit_code": code,
        "import_s": imported - started,
        "command_s": finished - command_start,
        "peak_rss_kb": peak_rss_kb(),
        "spans": spans,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] not in ("0", "1"):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
