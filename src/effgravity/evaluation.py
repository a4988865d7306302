"""Comparing rankings against each other and against simulated spreading.

Kendall's tau here counts strictly concordant and strictly discordant pairs
only; pairs tied in either coordinate count toward neither. Two denominator
conventions are provided: "standard" divides by the number of unordered
pairs N(N-1)/2 (so |tau| <= 1), "ordered-pairs" divides by N(N-1) (so
|tau| <= 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import TAU_CONVENTIONS
from .graph import _SLOT_BUDGET, _node_order


@dataclass(frozen=True)
class RankComparison:
    """Tau plus the raw pair counts it was built from."""

    tau: float
    concordant: int
    discordant: int
    pairs_total: int

    @property
    def degenerate(self) -> bool:
        """True when every pair was tied, leaving tau uninformative."""
        return self.concordant == 0 and self.discordant == 0


def _tied_pairs(same: np.ndarray) -> np.ndarray:
    """Per row, the pairs inside runs of equal neighbours; ``same[r, i]`` says
    item i + 1 of row r equals item i.

    Each item adds its distance from the first item of its run, which sums to
    L(L - 1)/2 over a run of L items.
    """
    position = np.arange(1, same.shape[1] + 1)
    first = np.where(same, 0, position)
    np.maximum.accumulate(first, axis=1, out=first)
    return (position - first).sum(axis=1)


def _strict_inversions(ranks: np.ndarray) -> np.ndarray:
    """Per row, the pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n).

    A bottom-up merge sort over all rows at once. Each row is padded to a
    power of two with the rank n, which is above every real rank and comes
    last, so it adds no inversion. A key is 2 * rank, plus 1 while it sits
    in a right run. At width w the rows hold sorted runs of w keys; sorting
    each pair of runs merges them, a left key first among equal ranks, and
    a right key's place before the merge, less its place after, is the
    number of left keys strictly greater than it.
    """
    rows, n = ranks.shape
    size = 1 << (n - 1).bit_length()
    keys = np.full((rows, size), 2 * n, dtype=np.int64)
    np.multiply(ranks, 2, out=keys[:, :n])
    inversions = np.zeros(rows, dtype=np.int64)
    width = 1
    while width < size:
        runs = keys.reshape(-1, 2 * width)
        runs[:, width:] += 1
        runs.sort(axis=1)
        # the right keys of a pair of runs sat at places w .. 2w - 1
        before = width * (3 * width - 1) // 2
        after = (runs & 1) @ np.arange(2 * width)
        inversions += (before - after).reshape(rows, -1).sum(axis=1)
        runs &= ~1
        width *= 2
    return inversions


def _kendall_counts(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concordant and discordant pair counts of each row of two (rows, n) arrays.

    Knight's method, row by row: sort by (x, y); the discordant pairs are
    then exactly the strict inversions of y, and the concordant ones are the
    pairs tied in neither coordinate that are not discordant.
    """
    rows, n = xs.shape
    order = np.lexsort((ys, xs), axis=-1)
    x_sorted = np.take_along_axis(xs, order, axis=1)
    y_sorted = np.take_along_axis(ys, order, axis=1)
    same_x = x_sorted[:, 1:] == x_sorted[:, :-1]
    same_xy = same_x & (y_sorted[:, 1:] == y_sorted[:, :-1])
    y_order = np.argsort(ys, axis=1, kind="stable")
    y_by_rank = np.take_along_axis(ys, y_order, axis=1)
    same_y = y_by_rank[:, 1:] == y_by_rank[:, :-1]
    dense = np.zeros((rows, n), dtype=np.int64)
    np.cumsum(~same_y, axis=1, out=dense[:, 1:])
    y_ranks = np.empty_like(dense)
    np.put_along_axis(y_ranks, y_order, dense, axis=1)
    untied = n * (n - 1) // 2 - _tied_pairs(same_x) - _tied_pairs(same_y) + _tied_pairs(same_xy)
    discordant = _strict_inversions(np.take_along_axis(y_ranks, order, axis=1))
    return untied - discordant, discordant


def _kendall_taus(
    pairs: Sequence[tuple[Sequence[float], Sequence[float]]], convention: str = "standard"
) -> list[RankComparison]:
    """Kendall's tau of each (x, y) pair, every sequence of one length n.

    The pairs are stacked as rows and counted together, at most
    ``_SLOT_BUDGET`` row entries at a time, in O(n log n) time per pair;
    NaN is rejected.
    """
    if convention not in TAU_CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}; choose from {TAU_CONVENTIONS}"
        )
    pairs = [(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)) for x, y in pairs]
    if not pairs:
        return []
    shape = pairs[0][0].shape
    for xs, ys in pairs:
        if xs.shape != ys.shape or xs.ndim != 1 or xs.shape != shape:
            raise ValueError(
                f"sequences must be 1-d and equal length, got {xs.shape} and {ys.shape}"
            )
    (n,) = shape
    if n < 2:
        raise ValueError(f"need at least two elements, got {n}")
    counts = []
    chunk = max(1, _SLOT_BUDGET // n)
    for start in range(0, len(pairs), chunk):
        xs, ys = (np.stack(column) for column in zip(*pairs[start : start + chunk]))
        if np.isnan(xs).any() or np.isnan(ys).any():
            raise ValueError("sequences must not contain NaN")
        counts.extend(zip(*(column.tolist() for column in _kendall_counts(xs, ys))))
    pairs_total = n * (n - 1) // 2
    denominator = n * (n - 1) if convention == "ordered-pairs" else pairs_total
    return [
        RankComparison(
            tau=(concordant - discordant) / denominator,
            concordant=concordant,
            discordant=discordant,
            pairs_total=pairs_total,
        )
        for concordant, discordant in counts
    ]


def kendall_tau(
    x: Sequence[float], y: Sequence[float], convention: str = "standard"
) -> RankComparison:
    """Count concordant/discordant pairs of (x, y) and normalize to tau.

    The one-pair case of the batched :func:`_kendall_taus`: O(n log n) time
    and O(n) memory; NaN is rejected.
    """
    return _kendall_taus([(x, y)], convention)[0]


def top_k_overlap(a: Sequence[int], b: Sequence[int], k: int) -> int:
    """How many nodes the top-k sets of two node orders have in common.

    Each order must be a permutation of the same n nodes.
    """
    a, b = _node_order(a, len(a)), _node_order(b, len(a))
    if a.size != b.size:
        raise ValueError(f"rankings cover different node sets ({a.size} vs {b.size} nodes)")
    if not 0 <= k <= a.size:
        raise ValueError(f"k={k} out of range for {a.size} nodes")
    return len(set(a[:k].tolist()) & set(b[:k].tolist()))


def rank_vs_spread(order: Sequence[int], power: Sequence[float]) -> list[tuple[int, int, float]]:
    """Each node's spreading power, emitted in the rank order ``order``.

    Rows are (rank, node index, power[node]). With ``power`` from
    :func:`spreading_power` or :func:`spreading_powers`, the mean final
    infected count of a single-node seeding, a ranking that tracks true
    influence produces a mostly decreasing third column. ``evaluate`` takes
    its vector from the same :func:`spreading_powers` call as its sweep,
    where the rank-vs-spread seed sets stay in the pass after the sweep's
    sets have left it. ``order`` must be a permutation of the n nodes.
    """
    power = np.asarray(power)
    order = _node_order(order, len(power))
    if power.shape != order.shape:
        raise ValueError(
            f"ranking covers {order.size} nodes, power vector has shape {power.shape}"
        )
    return [
        (position + 1, int(node), float(power[node]))
        for position, node in enumerate(order)
    ]
