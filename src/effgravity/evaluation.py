"""Comparing rankings against each other and against simulated spreading.

Kendall's tau here counts strictly concordant and strictly discordant pairs
only; pairs tied in either coordinate count toward neither. Two denominator
conventions are provided: "standard" divides by the number of unordered
pairs N(N-1)/2 (so |tau| <= 1), "ordered-pairs" divides by N(N-1) (so
|tau| <= 0.5).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .centrality import Ranking, ScoreVector
from .epidemics import SIConfig, spreading_powers
from .graph import Graph

TAU_CONVENTIONS = ("standard", "ordered-pairs")


@dataclass(frozen=True)
class RankComparison:
    """Tau plus the raw pair counts it was built from."""

    tau: float
    concordant: int
    discordant: int
    pairs_total: int
    convention: str

    @property
    def degenerate(self) -> bool:
        """True when every pair was tied, leaving tau uninformative."""
        return self.concordant == 0 and self.discordant == 0


@dataclass(frozen=True)
class OverlapReport:
    """Size of the intersection of two rankings' top-k node sets."""

    k: int
    shared: int


def _tied_pairs(same: np.ndarray) -> int:
    """Pairs inside runs of equal neighbours; ``same[i]`` says item i + 1 equals item i."""
    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))
    lengths = np.diff(bounds)
    return int(np.sum(lengths * (lengths - 1) // 2))


def _strict_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n).

    A bottom-up merge sort: at width w the array holds sorted runs of w
    items, each right run counts the items of its left neighbour that are
    strictly greater than each of its own, and the two runs are merged by
    sorting keys that put the block index above the rank.
    """
    n = ranks.size
    position = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        block = position // (2 * width)
        keys = block * n + ranks
        right = position // width % 2 == 1
        # a left run that has a right neighbour is full: it holds w items
        at_most = np.searchsorted(keys[~right], keys[right], side="right") - block[right] * width
        inversions += int(np.sum(width - at_most))
        ranks = np.sort(keys) - block * n
        width *= 2
    return inversions


def kendall_tau(
    x: Sequence[float], y: Sequence[float], convention: str = "standard"
) -> RankComparison:
    """Count concordant/discordant pairs of (x, y) and normalize to tau.

    Runs in O(n log n) time and O(n) memory; NaN is rejected.
    """
    if convention not in TAU_CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}; choose from {TAU_CONVENTIONS}"
        )
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"sequences must be 1-d and equal length, got {xs.shape} and {ys.shape}")
    n = xs.size
    if n < 2:
        raise ValueError(f"need at least two elements, got {n}")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ValueError("sequences must not contain NaN")
    # Knight's method: sort by (x, y); the discordant pairs are then exactly
    # the strict inversions of y, and the concordant ones are the pairs tied
    # in neither coordinate that are not discordant
    order = np.lexsort((ys, xs))
    x_sorted, y_sorted = xs[order], ys[order]
    same_x = x_sorted[1:] == x_sorted[:-1]
    same_xy = same_x & (y_sorted[1:] == y_sorted[:-1])
    y_order = np.argsort(ys, kind="stable")
    same_y = ys[y_order][1:] == ys[y_order][:-1]
    y_ranks = np.empty(n, dtype=np.int64)
    y_ranks[y_order] = np.concatenate(([0], np.cumsum(~same_y)))
    pairs_total = n * (n - 1) // 2
    untied = pairs_total - _tied_pairs(same_x) - _tied_pairs(same_y) + _tied_pairs(same_xy)
    discordant = _strict_inversions(y_ranks[order])
    concordant = untied - discordant
    denominator = n * (n - 1) if convention == "ordered-pairs" else pairs_total
    return RankComparison(
        tau=(concordant - discordant) / denominator,
        concordant=concordant,
        discordant=discordant,
        pairs_total=pairs_total,
        convention=convention,
    )


def top_k_overlap(a: Ranking, b: Ranking, k: int) -> OverlapReport:
    """How many nodes the two rankings' top-k sets have in common."""
    if a.order.size != b.order.size:
        raise ValueError(
            f"rankings cover different node sets ({a.order.size} vs {b.order.size} nodes)"
        )
    if not 0 <= k <= a.order.size:
        raise ValueError(f"k={k} out of range for {a.order.size} nodes")
    shared = len(set(map(int, a.top(k))) & set(map(int, b.top(k))))
    return OverlapReport(k=k, shared=shared)


def clamp_betas(betas: Sequence[float]) -> tuple[list[float], list[float]]:
    """Clamp transmission probabilities above 1 down to 1.

    Returns the clamped values and the requested values that exceeded 1, in
    order. NaN and negative values raise ValueError.
    """
    clamped = []
    over = []
    for beta in betas:
        if not beta >= 0.0:  # NaN included
            raise ValueError(f"beta must be >= 0, got {beta}")
        if beta > 1.0:
            over.append(beta)
        clamped.append(min(float(beta), 1.0))
    return clamped, over


def tau_vs_beta_sweep(
    graph: Graph,
    score_vectors: Sequence[ScoreVector],
    betas: Sequence[float],
    config: SIConfig,
    convention: str = "standard",
) -> list[tuple[str, float, RankComparison]]:
    """Correlate each measure with simulated spreading power across betas.

    The single-seed spreading power of all nodes is computed once per
    distinct clamped beta (config.beta is replaced by it), all in one
    :func:`spreading_powers` call, and each measure's score vector is
    correlated against it. Betas above 1 are clamped with a warning. Rows
    keep the requested beta values; order is (beta, measure).
    """
    requested = list(betas)
    clamped, over = clamp_betas(requested)
    if over:
        warnings.warn(
            f"beta values {over} exceed 1 and were clamped to 1 "
            "(transmission is a per-contact probability)",
            stacklevel=2,
        )
    distinct = list(dict.fromkeys(clamped))
    configs = [replace(config, beta=beta) for beta in distinct]
    power = dict(zip(distinct, spreading_powers(graph, configs)))
    rows: list[tuple[str, float, RankComparison]] = []
    for beta_requested, beta in zip(requested, clamped):
        for sv in score_vectors:
            comparison = kendall_tau(sv.scores, power[beta], convention=convention)
            rows.append((sv.measure, float(beta_requested), comparison))
    return rows


def rank_vs_spread(ranking: Ranking, power: np.ndarray) -> list[tuple[int, int, float]]:
    """Each node's spreading power, emitted in rank order.

    Rows are (rank, node index, power[node]). With ``power`` from
    :func:`spreading_power`, the mean final infected count of a single-node
    seeding, a ranking that tracks true influence produces a mostly
    decreasing third column.
    """
    if power.shape != ranking.order.shape:
        raise ValueError(
            f"ranking covers {ranking.order.size} nodes, power vector has shape {power.shape}"
        )
    return [
        (position + 1, int(node), float(power[node]))
        for position, node in enumerate(ranking.order)
    ]
