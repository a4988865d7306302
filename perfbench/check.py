"""Output checks for the benchmark's ``effgravity`` commands.

Two kinds of check, both returning a list of problems (empty when fine):

* structural checks hold on any seed: each ranking is a permutation of the
  graph's labels with ranks 1..n, degree scores equal the generated
  degrees, SI curves start at k and never decrease, tau lies in [-1, 1];
* a reference check, for seeds with a stored reference, compares every
  table cell by cell: labels, ranks, counts and overlaps exactly, float
  columns within ``RTOL`` (relative) or ``ATOL`` (absolute, for zeros).
  The tolerance admits last-digit changes from a new summation order,
  nothing more.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Expected:
    """What the generated graph says every output must agree with."""

    labels: tuple[str, ...]  # parser index order: first appearance in the edge list
    degrees: dict[str, int]
    m: int
    connected: bool

    @classmethod
    def from_edges(cls, u: np.ndarray, v: np.ndarray, connected: bool) -> "Expected":
        flat = np.column_stack([u, v]).ravel()
        nodes, first = np.unique(flat, return_index=True)
        order = nodes[np.argsort(first, kind="stable")]
        counts = np.bincount(flat)
        labels = tuple(str(node) for node in order.tolist())
        degrees = {str(node): int(counts[node]) for node in order.tolist()}
        return cls(labels=labels, degrees=degrees, m=int(u.size), connected=connected)

    @property
    def n(self) -> int:
        return len(self.labels)

    def degree_order(self) -> list[str]:
        """Labels by descending degree, ties in parser index order (the dc ranking)."""
        return sorted(self.labels, key=lambda label: -self.degrees[label])


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _column(header, rows, name):
    index = header.index(name)
    return [row[index] for row in rows]


def _floats(values):
    return [float(value) for value in values]


def check_ranking(name: str, labels: list[str], ranks: list[str], expected: Expected) -> list[str]:
    problems = []
    if sorted(labels) != sorted(expected.labels):
        problems.append(f"{name}: labels are not a permutation of the graph's {expected.n} labels")
    if ranks != [str(r) for r in range(1, len(ranks) + 1)]:
        problems.append(f"{name}: ranks are not 1..{len(ranks)} in row order")
    return problems


def check_stats(files: dict[str, str], expected: Expected) -> list[str]:
    header, rows = read_table(files["stats.csv"])
    if len(rows) != 1:
        return [f"stats.csv: expected one row, got {len(rows)}"]
    row = dict(zip(header, rows[0]))
    problems = []
    if row.get("n") != str(expected.n) or row.get("m") != str(expected.m):
        problems.append(f"stats.csv: n, m = {row.get('n')}, {row.get('m')}; expected {expected.n}, {expected.m}")
    if not math.isclose(float(row["avg_degree"]), 2 * expected.m / expected.n, rel_tol=RTOL):
        problems.append(f"stats.csv: avg_degree {row['avg_degree']} != 2m/n")
    unreachable = float(row["unreachable_pair_fraction"])
    if not 0.0 <= unreachable < 1.0 or (expected.connected and unreachable != 0.0):
        problems.append(f"stats.csv: unreachable_pair_fraction {unreachable} out of range")
    if not float(row["avg_distance"]) >= 1.0:
        problems.append(f"stats.csv: avg_distance {row['avg_distance']} below 1")
    return problems


def check_rank(files: dict[str, str], expected: Expected, measures: list[str]) -> list[str]:
    problems = []
    for measure in measures:
        name = f"scores_{measure}.csv"
        if name not in files:
            problems.append(f"{name}: missing")
            continue
        header, rows = read_table(files[name])
        labels = _column(header, rows, "node_label")
        scores = _floats(_column(header, rows, "score"))
        problems += check_ranking(name, labels, _column(header, rows, "rank"), expected)
        if not all(math.isfinite(s) for s in scores) or any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"{name}: scores are not finite and non-increasing down the ranking")
        if measure == "dc":
            if labels != expected.degree_order():
                problems.append(f"{name}: order differs from descending generated degree")
            if any(expected.degrees.get(label) != s for label, s in zip(labels, scores)):
                problems.append(f"{name}: scores differ from generated degrees")
    return problems


def check_spread(files: dict[str, str], expected: Expected, measures: list[str], k: int, t_max: int) -> list[str]:
    header, rows = read_table(files["spread.csv"])
    problems = []
    if _column(header, rows, "t") != [str(t) for t in range(t_max + 1)]:
        problems.append(f"spread.csv: t column is not 0..{t_max}")
    for measure in measures:
        curve = _floats(_column(header, rows, f"F_{measure}"))
        if curve[0] != k:
            problems.append(f"spread.csv: F_{measure}(0) = {curve[0]}, expected k = {k}")
        if any(a > b for a, b in zip(curve, curve[1:])) or curve[-1] > expected.n:
            problems.append(f"spread.csv: F_{measure} decreases or exceeds n")
    return problems


def check_evaluate(
    files: dict[str, str], expected: Expected, measures: list[str], betas: list[str], k: int
) -> list[str]:
    problems = []
    header, rows = read_table(files["tau_sweep.csv"])
    pairs = [(row[0], row[1]) for row in rows]
    if pairs != [(m, b) for b in betas for m in measures]:
        problems.append("tau_sweep.csv: rows are not (beta, measure) over the full grid")
    if not all(-1.0 <= tau <= 1.0 for tau in _floats(_column(header, rows, "tau"))):
        problems.append("tau_sweep.csv: tau outside [-1, 1]")
    header, rows = read_table(files["overlap.csv"])
    wanted = [(a, b) for i, a in enumerate(measures) for b in measures[i + 1 :]]
    if [(row[0], row[1]) for row in rows] != wanted:
        problems.append("overlap.csv: rows are not every measure pair once")
    for row in rows:
        if int(row[2]) != k or not 0 <= int(row[3]) <= k:
            problems.append(f"overlap.csv: bad k or shared count in {row}")
    finals: dict[str, list[float]] = {}
    for measure in measures:
        name = f"rank_vs_spread_{measure}.csv"
        header, rows = read_table(files[name])
        labels = _column(header, rows, "node_label")
        problems += check_ranking(name, labels, _column(header, rows, "rank"), expected)
        values = _floats(_column(header, rows, "mean_final"))
        if not all(1.0 <= value <= expected.n for value in values):
            problems.append(f"{name}: mean_final outside [1, n]")
        if measure == "dc" and labels != expected.degree_order():
            problems.append(f"{name}: order differs from descending generated degree")
        finals[measure] = [value for _, value in sorted(zip(labels, values))]
    # every table reads the same single-seed spreading power, only reordered
    if len({tuple(values) for values in finals.values()}) > 1:
        problems.append("rank_vs_spread_*.csv: mean_final per node differs between measures")
    return problems


def _cells_match(reference: str, actual: str) -> bool:
    if reference == actual:
        return True
    try:
        int(reference)
        return False  # labels, ranks, counts: exact only
    except ValueError:
        pass
    try:
        a, b = float(reference), float(actual)
    except ValueError:
        return False
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def compare_to_reference(files: dict[str, str], reference: dict[str, str]) -> list[str]:
    problems = []
    for name, text in sorted(reference.items()):
        if name not in files:
            problems.append(f"{name}: missing (the reference has it)")
            continue
        ref_header, ref_rows = read_table(text)
        header, rows = read_table(files[name])
        if header != ref_header or len(rows) != len(ref_rows):
            problems.append(f"{name}: header or row count differs from the reference")
            continue
        for line, (ref_row, row) in enumerate(zip(ref_rows, rows), start=2):
            if len(ref_row) != len(row) or not all(map(_cells_match, ref_row, row)):
                problems.append(f"{name} line {line}: {row} differs from reference {ref_row}")
                break
    return problems


def read_outputs(out_dir: Path) -> dict[str, str]:
    """Every table a command wrote, by file name (config.json is left out)."""
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(out_dir.glob("*.csv"))
    }
