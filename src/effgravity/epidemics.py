"""Seeded Monte-Carlo simulation of susceptible-infected spreading.

Dynamics are synchronous discrete time: at every step each currently
infected node attempts to infect each susceptible neighbor independently
with probability beta, and all infections land together at the end of the
step, so newly infected nodes start transmitting the following step.

Randomness is positional: run r draws its uniforms from a generator seeded
by (config.seed, r), consuming exactly one draw per directed adjacency slot
per step. Draws therefore depend only on (seed, run, step, edge), which
makes ensembles reproducible run by run and couples simulations that share
a seed: raising beta or enlarging the seed set can never lose an infection
under the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .centrality import Ranking
from .graph import Graph


@dataclass(frozen=True)
class SIConfig:
    """Transmission probability, horizon, ensemble size and master seed."""

    beta: float
    t_max: int
    runs: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SIOutcome:
    """Infected-count trajectories for one seeded ensemble."""

    run_curves: np.ndarray  # (runs, t_max + 1) per-run infected counts

    @property
    def f_curve(self) -> np.ndarray:
        """Ensemble mean infected count at t = 0 .. t_max."""
        return self.run_curves.mean(axis=0)


# Budget, in (seed set, node or adjacency slot) pairs, for one block of
# spreading_power's single-node seed sets: every per-step array of the
# engine then stays near a megabyte, and a Jazz-sized graph (2m ~ 5k slots)
# simulates all of its nodes in one block.
_BLOCK_CELLS = 1 << 20


def _infected_counts(graph: Graph, seed_masks: np.ndarray, config: SIConfig) -> np.ndarray:
    """Per-run infected counts, shape (runs, seed sets, t_max + 1).

    ``seed_masks`` is a boolean (seed sets, n) array. All seed sets advance
    together: run r builds one generator and draws one uniform per
    adjacency slot per step, and every seed set reads those same draws. A
    slot whose draw is below beta is open, and a node becomes infected when
    the source of any of its open incoming slots was infected before the
    step.

    Every run still draws one uniform per slot per step, but only the open
    slots whose source is infected in some seed set and whose target is
    susceptible in some seed set are grouped and reduced: any other open
    slot would only OR zero bits into its target.
    """
    sets, n = seed_masks.shape
    src, dst = graph.edge_sources, graph.indices
    # one byte per (node, seed set), padded to whole 64-bit words per node, so
    # the OR over a node's incoming slots handles eight seed sets at a time
    width = -(-sets // 8) * 8
    full = np.zeros(width, dtype=bool)
    full[:sets] = True
    full = full.view(np.uint64)
    counts = np.empty((config.runs, sets, config.t_max + 1), dtype=np.int64)
    counts[:, :, 0] = np.count_nonzero(seed_masks, axis=1)
    for run in range(config.runs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, run)))
        infected = np.zeros((n, width), dtype=bool)
        infected[:, :sets] = seed_masks.T
        words = infected.view(np.uint64)
        # per node: infected in some seed set, and infected in every seed set
        touched = seed_masks.any(axis=0)
        saturated = seed_masks.all(axis=0)
        for t in range(1, config.t_max + 1):
            opened = np.flatnonzero(rng.random(dst.size) < config.beta)
            opened = opened[touched[src[opened]] & ~saturated[dst[opened]]]
            if opened.size == 0:
                counts[run, :, t] = counts[run, :, t - 1]
                continue
            # group the open slots by target, one reduceat segment per node
            opened = opened[np.argsort(dst[opened])]
            targets = dst[opened]
            starts = np.flatnonzero(np.diff(targets, prepend=-1))
            nodes = targets[starts]
            before = words[nodes]
            fresh = np.bitwise_or.reduceat(words[src[opened]], starts, axis=0) & ~before
            after = before | fresh
            words[nodes] = after
            touched[nodes] = True
            saturated[nodes] = (after == full).all(axis=1)
            counts[run, :, t] = counts[run, :, t - 1] + np.count_nonzero(
                fresh.view(bool)[:, :sets], axis=0
            )
    return counts


def _seed_mask(graph: Graph, seeds: Iterable[int]) -> np.ndarray:
    seed_nodes = np.asarray(list(seeds))
    if seed_nodes.size == 0:
        raise ValueError("seed set must not be empty")
    # a float or bool seed would otherwise be cast to some node silently
    if seed_nodes.dtype.kind not in "iu":
        raise ValueError(f"seed nodes must be integers, got dtype {seed_nodes.dtype}")
    if seed_nodes.min() < 0 or seed_nodes.max() >= graph.n:
        raise ValueError(
            f"seed nodes must be in [0, {graph.n}), got range "
            f"[{seed_nodes.min()}, {seed_nodes.max()}]"
        )
    mask = np.zeros(graph.n, dtype=bool)
    mask[seed_nodes] = True
    return mask


def simulate_si(graph: Graph, seeds: Iterable[int], config: SIConfig) -> SIOutcome:
    """Run an ensemble of spreading trajectories from one seed set.

    The outcome is bit-identical for identical (graph, seeds, config).
    """
    curves = _infected_counts(graph, _seed_mask(graph, seeds)[None], config)[:, 0]
    curves.setflags(write=False)
    return SIOutcome(run_curves=curves)


def spreading_power(graph: Graph, config: SIConfig) -> np.ndarray:
    """Mean final infected count when each node seeds the epidemic alone.

    This is the simulation ground truth that rankings are correlated
    against. Every node's ensemble reuses the same derived streams (common
    random numbers), so scores are directly comparable across nodes. Nodes
    are simulated in blocks that share each run's draws.
    """
    n = graph.n
    block = max(1, _BLOCK_CELLS // max(graph.indices.size, n))
    power = np.empty(n, dtype=np.float64)
    for start in range(0, n, block):
        seeds = np.eye(min(block, n - start), n, k=start, dtype=bool)
        finals = _infected_counts(graph, seeds, config)[:, :, -1]
        power[start : start + block] = finals.mean(axis=0)
    return power


def top_k_infection_curves(
    graph: Graph,
    rankings: Sequence[tuple[str, Ranking]],
    k: int,
    config: SIConfig,
) -> dict[str, np.ndarray]:
    """Mean infection curve per measure when its top-k nodes seed together.

    Every measure's ensemble runs under the same config and the same derived
    streams, so curves differ only through the seed sets; identical rankings
    produce identical curves.
    """
    if not 0 < k <= graph.n:
        raise ValueError(f"k must be in [1, {graph.n}], got {k}")
    seeds = np.zeros((len(rankings), graph.n), dtype=bool)
    for row, (_, ranking) in zip(seeds, rankings):
        row[ranking.top(k)] = True
    means = _infected_counts(graph, seeds, config).mean(axis=0)
    return {name: mean for (name, _), mean in zip(rankings, means)}
