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
from typing import Iterable, Iterator, Sequence

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


# Budget, in bytes, for one block of spreading_powers' single-node seed
# sets: a seed set is one bit per node or adjacency slot, so every per-step
# array of the engine then stays near a megabyte, and a Jazz-sized graph
# (2m ~ 5k slots) simulates all of its nodes at four betas in one block.
_BLOCK_BYTES = 1 << 20


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack the last axis of a boolean array into ``words`` 64-bit words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def _infected_counts(
    graph: Graph, seed_masks: np.ndarray, betas: Sequence[float], t_max: int, runs: int, seed: int
) -> Iterator[np.ndarray]:
    """Infected counts of one run at a time, shape (seed sets, t_max + 1).

    ``seed_masks`` is a boolean (seed sets, n) array and ``betas`` gives
    each seed set its transmission probability. All seed sets advance
    together: run r builds one generator and draws one uniform per
    adjacency slot per step, and every seed set reads those same draws. A
    slot is open for a seed set when its draw is below that set's beta, and
    a node becomes infected when the source of any of its open incoming
    slots was infected before the step.

    Seed sets are bits, 64 to a word per node. The sets open at a slot are
    nested (every set whose beta exceeds the draw), so each kept slot ANDs
    one row of a small table, indexed by where its draw falls among the
    distinct betas, into the words it carries.

    Every run still draws one uniform per slot per step, but only the open
    slots whose source is infected in some seed set and whose target is
    susceptible in some seed set are grouped and reduced: any other open
    slot would only OR zero bits into its target. A run stops drawing once
    every node is infected in every seed set, as no count can change after.
    """
    sets, n = seed_masks.shape
    src, dst = graph.edge_sources, graph.indices
    betas = np.asarray(betas, dtype=np.float64)
    # the distinct betas; with no seed set at all, one level that opens nothing
    levels = np.array(sorted(set(betas.tolist())) or [0.0])
    words = -(-sets // 64)
    full = _pack(np.ones(sets, dtype=bool), words)
    # row i: the seed sets still open at a draw with i levels at or below it
    open_sets = _pack(betas >= levels[:, None], words)
    start_words = _pack(seed_masks.T, words)
    # per node: infected in some seed set, and infected in every seed set
    start_touched = seed_masks.any(axis=0)
    start_saturated = seed_masks.all(axis=0)
    start_done = np.count_nonzero(start_saturated)
    seeded = np.count_nonzero(seed_masks, axis=1)
    # one buffer each, reset by every run: a fresh copy per run raised the
    # peak RSS of a large spread by about a megabyte
    infected = np.empty_like(start_words)
    touched = np.empty_like(start_touched)
    saturated = np.empty_like(start_saturated)
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        infected[...] = start_words
        touched[...] = start_touched
        saturated[...] = start_saturated
        # nodes infected in every seed set; the live filter keeps only slots
        # into unsaturated targets, so a step's nodes were all unsaturated
        done = start_done
        counts = np.empty((sets, t_max + 1), dtype=np.int64)
        counts[:, 0] = seeded
        # ndarray methods rather than np.* wrappers, and no np.diff: on a
        # tiny graph each step is a few dozen microsecond-sized calls
        for t in range(1, t_max + 1):
            if done == n:
                counts[:, t:] = counts[:, t - 1 : t]
                break
            draws = rng.random(dst.size)
            opened = (draws < levels[-1]).nonzero()[0]
            opened = opened.take(
                (touched.take(src.take(opened)) & ~saturated.take(dst.take(opened))).nonzero()[0]
            )
            # keep only the kept slots' draws, so that the next step's 2m
            # draws are not allocated while this step's are still held
            draws = draws[opened]
            if opened.size == 0:
                counts[:, t] = counts[:, t - 1]
                continue
            # group the open slots by target, one reduceat segment per node
            order = dst[opened].argsort()
            opened = opened[order]
            targets = dst[opened]
            starts = np.append(True, targets[1:] != targets[:-1]).nonzero()[0]
            nodes = targets[starts]
            # take, as row gathers by fancy indexing are several times slower
            carried = infected.take(src[opened], axis=0)
            if levels.size > 1:
                level = levels.searchsorted(draws[order], side="right")
                carried &= open_sets.take(level, axis=0)
            before = infected.take(nodes, axis=0)
            fresh = np.bitwise_or.reduceat(carried, starts, axis=0) & ~before
            after = before | fresh
            infected[nodes] = after
            touched[nodes] = True
            now_saturated = (after == full).all(axis=1)
            saturated[nodes] = now_saturated
            done += np.count_nonzero(now_saturated)
            bits = np.unpackbits(fresh.view(np.uint8), axis=1, count=sets, bitorder="little")
            counts[:, t] = counts[:, t - 1] + bits.sum(axis=0, dtype=np.int32)
        yield counts


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
    runs = _infected_counts(
        graph, _seed_mask(graph, seeds)[None], [config.beta], config.t_max, config.runs, config.seed
    )
    curves = np.stack([counts[0] for counts in runs])
    curves.setflags(write=False)
    return SIOutcome(run_curves=curves)


def spreading_powers(graph: Graph, configs: Sequence[SIConfig]) -> list[np.ndarray]:
    """Mean final infected count per node, seeding alone, for each config.

    This is the simulation ground truth that rankings are correlated
    against. Every config must share ``seed`` and ``runs``, so every node's
    ensemble reuses the same derived streams (common random numbers) and
    scores are directly comparable across nodes and across configs.

    One engine pass per block of nodes serves every config with beta < 1:
    the block is stacked once per distinct beta, all of them read each
    step's one draw per slot, and the pass runs to the longest horizon, from
    which each config reads the column at its own ``t_max``. At beta = 1
    every draw opens every slot, so all runs agree and those configs take
    one run of their own, which gives each node the size of its hop ball of
    radius ``t_max``; they stay out of the beta < 1 pass, where their level
    would open every slot for the other seed sets too.
    """
    configs = list(configs)
    if not configs:
        return []
    if len({(config.seed, config.runs) for config in configs}) > 1:
        raise ValueError("spreading_powers needs configs that share seed and runs")
    n, seed = graph.n, configs[0].seed
    powers = {(config.beta, config.t_max): np.empty(n) for config in configs}
    for group, runs in (
        ([key for key in powers if key[0] < 1.0], configs[0].runs),
        ([key for key in powers if key[0] == 1.0], 1),
    ):
        if not group:
            continue
        levels = sorted({beta for beta, _ in group})
        horizon = max(t_max for _, t_max in group)
        block = max(1, 8 * _BLOCK_BYTES // (len(levels) * max(graph.indices.size, n)))
        for start in range(0, n, block):
            size = min(block, n - start)
            seeds = np.tile(np.eye(size, n, k=start, dtype=bool), (len(levels), 1))
            betas = np.repeat(levels, size)
            total = sum(_infected_counts(graph, seeds, betas, horizon, runs, seed))
            for beta, t_max in group:
                offset = levels.index(beta) * size
                powers[beta, t_max][start : start + size] = total[offset : offset + size, t_max] / runs
    return [powers[config.beta, config.t_max] for config in configs]


def spreading_power(graph: Graph, config: SIConfig) -> np.ndarray:
    """Mean final infected count when each node seeds the epidemic alone.

    The one-config case of :func:`spreading_powers`.
    """
    return spreading_powers(graph, [config])[0]


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
    betas = [config.beta] * len(seeds)
    total = sum(_infected_counts(graph, seeds, betas, config.t_max, config.runs, config.seed))
    means = total / config.runs
    return {name: mean for (name, _), mean in zip(rankings, means)}
