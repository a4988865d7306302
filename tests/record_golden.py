"""Golden outputs of the command-line front end, and the script that records them.

Each case runs one CLI command in process on a small edge list committed
under ``tests/golden``, from that directory, so ``config.json`` records the
same relative ``--input`` on every machine. Its record holds the command,
the exit code, and the SHA-256 of stdout, of stderr and of every file the
command wrote. ``tests/golden/manifest.json`` holds the records of all the
cases, and ``test_golden.py`` checks each run against it. Every JSON file a
case writes must also be strict JSON, without ``NaN`` or ``Infinity``.

Every ``--measures`` list names ``ec`` except on the grid and the path:
on the path its power iteration does not converge within the iteration
cap, and on the grid it scores some mirror-image nodes a few ulps apart,
so their order would pin rounding rather than the measure. ``pagerank``
runs at damping 0.85 where a component is bipartite, as undamped it
cycles there (one case keeps that failure). No case prints argparse's
help or usage texts, which change between Python versions.

Rewrite the manifest after a deliberate output change with::

    PYTHONPATH=src python tests/record_golden.py

and list every changed entry in CHANGES.md. Naming cases, as in
``python tests/record_golden.py seven/rank-csv``, records only those and
keeps every other record as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

MEASURES = "dc,bc,cc,ec,pagerank,gm,effg"
# the grid and the path leave ec out (see above)
NO_EC = "dc,bc,cc,pagerank,gm,effg"
# every pagerank run on a graph with a bipartite component is damped
DAMPED = ["--damping", "0.85"]
SPREAD = ["--k", "3", "--runs", "4", "--t-max", "6"]
EVALUATE = ["--k", "3", "--runs", "4", "--beta-grid", "0.2,0.6,1.0,1.4"]


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, in a fixed order."""
    graphs = {
        "seven": (MEASURES, []),
        "pieces": (MEASURES, DAMPED),
        "ba150": (MEASURES, []),
        "grid10x12": (NO_EC, DAMPED),
        "path60": (NO_EC, DAMPED),
    }
    cases = {}
    for graph, (names, damping) in graphs.items():
        source = ["--input", f"{graph}.edges"]
        measures = ["--measures", names, *damping]
        for fmt in ("csv", "json"):
            form = ["--format", fmt]
            cases[f"{graph}/stats-{fmt}"] = ["stats", *source, *form]
            cases[f"{graph}/rank-{fmt}"] = ["rank", *source, *form, *measures]
            cases[f"{graph}/spread-{fmt}"] = ["spread", *source, *form, *measures, *SPREAD]
            cases[f"{graph}/evaluate-{fmt}"] = ["evaluate", *source, *form, *measures, *EVALUATE]
    # the effective-distance step out of a node of degree 1621 weighs
    # log2(1621), the smallest integer log2 that some SIMD paths round apart
    # from the correctly rounded value
    for fmt in ("csv", "json"):
        source = ["--input", "star1621.edges", "--format", fmt]
        cases[f"star1621/stats-{fmt}"] = ["stats", *source]
        cases[f"star1621/rank-{fmt}"] = ["rank", *source, "--measures", "dc,ec,effg"]
    # failures: undamped pagerank cycles on a bipartite component (exit 1),
    # and more seeds than nodes (exit 2); neither writes a file
    cases["pieces/rank-undamped-pagerank"] = ["rank", "--input", "pieces.edges", "--measures", "pagerank"]
    cases["seven/spread-k-past-n"] = ["spread", "--input", "seven.edges", "--measures", "dc", "--k", "8"]
    # the default beta grid at 4 runs: runs that a lower beta saturated by
    # t 5 are skipped at beta 0.6, 0.8 and 1
    for fmt in ("csv", "json"):
        source = ["--input", "seven.edges", "--format", fmt, "--measures", MEASURES]
        cases[f"seven/evaluate-default-grid-{fmt}"] = ["evaluate", *source, "--k", "3", "--runs", "4"]
    return cases


CASES = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _refuse(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def run_case(name: str) -> dict:
    """Run case ``name`` from the golden directory and return its record."""
    from effgravity.cli import main

    argv = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        here = os.getcwd()
        os.chdir(GOLDEN)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
        finally:
            os.chdir(here)
        files = sorted(out.iterdir()) if out.exists() else []
        digests = {path.name: _sha256(path.read_bytes()) for path in files}
        # Python's json writes NaN and Infinity for non-finite floats, and
        # strict readers refuse them
        for path in files:
            if path.suffix == ".json":
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
        "files": digests,
    }


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def record(names: list[str]) -> None:
    """Record the named cases, or every case if none is named; the other
    cases keep their records."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    old = load_manifest() if names else {}
    manifest = {
        name: run_case(name) if not names or name in names else old[name] for name in CASES
    }
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(manifest)} cases in {MANIFEST}")


if __name__ == "__main__":
    record(sys.argv[1:])
