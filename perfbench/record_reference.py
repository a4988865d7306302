"""Store the tables a commit's ``effgravity`` writes as the benchmark's reference.

    python3 perfbench/record_reference.py WORKLOAD SEED [SEED...]

For each seed, runs the workload's commands once (they must pass the
structural checks) and writes perfbench/reference/WORKLOAD/seed-SEED.json.gz
holding the input's SHA-256 and every table, keyed "<index>-<command>/<file>".
run.py then compares each run on that seed against it. Re-record only when
a change to the program's output is intended, and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import time

import check
import run


def record(name: str, seed: int) -> None:
    work = run.WORK / f"record-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = run.setup(name, seed, work)
        prepared.reference = None
        result = run.run_pass(name, prepared, "0", work / "pass", time.monotonic() + 600)
        if result.failed:
            raise SystemExit(f"{name} seed {seed}: outputs failed their checks; nothing recorded")
        tables = {}
        for index, command in enumerate(run.WORKLOADS[name].commands):
            label = f"{index}-{command.argv[0]}"
            for file_name, text in check.read_outputs(work / "pass" / label).items():
                tables[f"{label}/{file_name}"] = text
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.REFERENCE / name / f"seed-{seed}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({"sha256": prepared.sha256, "tables": tables}, sort_keys=True)
    # mtime=0 keeps the file byte-identical when re-recorded from the same outputs
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(payload.encode("utf-8"))
    print(f"{name} seed {seed}: pass {result.wall_s:.3f} s, peak {result.peak_rss_kb} kB -> {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in run.WORKLOADS:
        sys.exit(__doc__)
    for seed in sys.argv[2:]:
        record(sys.argv[1], int(seed))
