"""Sample the speed of one CPU while the benchmark's commands run on it.

    python3 perfbench/probe.py CPU OUT_JSON

Pins itself to CPU and, every PERIOD_S, times a fixed piece of work (a
Python loop over numpy scalars plus small numpy array operations, the two
kinds of work the ``effgravity`` commands do). On SIGTERM it writes
OUT_JSON, a list of [start, wall, cpu] per sample: start on
CLOCK_MONOTONIC (time.monotonic, the clock run.py reads too), wall and CPU
seconds of the sample. It prints "ready" once warmed up. Sampling takes
about 1% of the CPU from the command that shares it.

The host this runs on shares its cores with other machines: its speed
drifts by up to 1.8x over seconds to minutes, and CPU time counts that
drift as work, so a command's wall time alone says more about the host
than about the program. Samples taken on the command's CPU while it runs
measure the same drift; run.py divides it out.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.2
ROUNDS = 100

_values = np.arange(64, dtype=np.int64)
_positions = list(range(64))


def work() -> int:
    """The fixed work one sample times: about 1.4 ms on an uncontended core."""
    total = 0
    for _ in range(ROUNDS):
        for i in _positions:
            if _values[i] >= 0:
                total += 1
        total += int((_values[_values % 3 == 0] * 2).sum())
    return total


def main(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    stopping = False

    def stop(signum, frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    for _ in range(50):  # warm up caches and numpy's dispatch
        work()
    print("ready", flush=True)
    samples = []
    while not stopping:
        time.sleep(PERIOD_S)
        start = time.monotonic()
        cpu_start = time.thread_time()
        work()
        wall = time.monotonic() - start
        samples.append([start, wall, time.thread_time() - cpu_start])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(int(sys.argv[1]), sys.argv[2])
