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

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, _adjacency_slots, _bits, _node_indices, _node_order


@dataclass(frozen=True)
class SIConfig:
    """Transmission probability, horizon, ensemble size and master seed."""

    beta: float
    t_max: int
    runs: int
    seed: int

    def __post_init__(self):
        # a bool would simulate as beta 0 or 1, and a string or None would
        # raise TypeError in the range check
        if isinstance(self.beta, bool) or not isinstance(
            self.beta, (int, float, np.integer, np.floating)
        ):
            raise ValueError(f"beta must be a real number, got {self.beta!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        for name in ("t_max", "runs", "seed"):
            value = getattr(self, name)
            # a float would otherwise fail only in the first simulation, and
            # a bool would count as 0 or 1
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# Budget, in bytes, for one block of spreading_powers' single-node seed
# sets: a seed set is one bit per node or adjacency slot, so every per-step
# array of the engine stays near a megabyte, and a Jazz-sized graph (2m ~ 5k
# slots) simulates all of its nodes in one block.
_BLOCK_BYTES = 1 << 20


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack the last axis of a boolean array into ``words`` 64-bit words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def _select(
    rng: np.random.Generator,
    beta: float,
    live: np.ndarray,
    saturated: np.ndarray,
    dst: np.ndarray,
    shift: int,
    hit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One step's selection of open slots, shared by every seed set.

    Draws one uniform per adjacency slot and keeps the slots that are open
    (draw below ``beta``), ``live`` (source infected in some set) and into a
    target that is not ``saturated`` (susceptible in some set): any other
    open slot would only OR zero bits into its target. The live test is
    ANDed into the draw compare, so ``nonzero`` finds only open slots out of
    seeds and out of nodes that an earlier step reached.

    Returns the kept slots sorted by target, the start of each target's
    group among them and the targets, or None when no slot is kept. The
    kept slots' keys are (target << shift) | slot, with ``shift`` wide
    enough for every slot. ``hit`` is per-slot scratch: the draw compare,
    then the group starts.
    """
    # the 2m draws are freed once compared
    np.less(rng.random(dst.size), beta, out=hit)
    hit &= live
    slots = hit.nonzero()[0]
    slots = slots.take((~saturated.take(dst.take(slots))).nonzero()[0])
    if slots.size == 0:
        return None
    # group the open slots by target, one reduceat segment per node: numpy
    # sorts int64 keys with SIMD but not an argsort, and within a target the
    # keys keep slot order, which the OR does not depend on
    keys = dst.take(slots)
    keys <<= shift
    keys |= slots
    keys.sort()
    slots = keys & ((1 << shift) - 1)
    targets = keys >> shift
    head = hit[: targets.size]
    head[0] = True
    np.not_equal(targets[1:], targets[:-1], out=head[1:])
    starts = head.nonzero()[0]
    return slots, starts, targets.take(starts)


def _reduce(
    infected: np.ndarray,
    src: np.ndarray,
    slots: np.ndarray,
    starts: np.ndarray,
    nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """OR the words each group of selected slots carries into its target.

    ``slots``, ``starts`` and ``nodes`` are one step's selection (see
    :func:`_select`); each slot carries its source's words. Updates the
    ``nodes``' rows of ``infected`` in place and returns their new bits and
    their words after the step.
    """
    # take, as row gathers by fancy indexing are several times slower
    carried = infected.take(src.take(slots), axis=0)
    before = infected.take(nodes, axis=0)
    fresh = np.bitwise_or.reduceat(carried, starts, axis=0) & ~before
    after = before | fresh
    infected[nodes] = after
    return fresh, after


def _infected_counts(
    graph: Graph,
    seed_masks: np.ndarray,
    config: SIConfig,
    *,
    steps: Sequence[int] | None = None,
    runs: Iterable[int] | None = None,
) -> Iterator[np.ndarray]:
    """Infected counts of one run at a time, shape (seed sets, t_max + 1)
    or, with ``steps``, (seed sets, len(steps)).

    ``seed_masks`` is a boolean (seed sets, n) array, and every seed set
    spreads at ``config.beta`` to ``config.t_max`` in each run of ``runs``,
    in that order (``range(config.runs)`` by default). All seed sets
    advance together: run r builds one generator, seeded by
    ``(config.seed, r)`` alone, and draws one uniform per adjacency slot per
    step, and every seed set reads those same draws. A slot is open when its
    draw is below beta, and a node becomes infected when the source of any
    of its open incoming slots was infected before the step.

    A run's draws do not depend on which other runs are simulated, so a
    caller may leave out a run whose counts it already knows:
    :func:`spreading_powers` leaves out the runs that a lower beta's pass
    saw with every node infected in every set by the pass's first horizon.
    The same draws open at least those slots at a higher beta, so such a
    run counts n in every set at every horizon, and the caller adds that
    integer n itself.

    ``steps``, if given, are the sorted steps in [0, t_max] whose counts the
    caller reads, and each run yields only those columns. Each is counted
    once, from the infected words of all n nodes, instead of adding up every
    step's newly infected bits.

    Seed sets are bits, 64 to a word per node. Each step is two stages:
    :func:`_select` draws and picks the open slots that can infect some
    set, grouped by target, and :func:`_reduce` ORs each group's words into
    its target. The selection reads two filters, a per-slot live mask and
    a per-node saturated one. The live mask is the only record of reached
    nodes: a node a step reaches has an out-slot (the reverse of the slot
    into it), and it was reached before when its first out-slot is live;
    a node's out-slots join the mask on the step that first reaches it.
    Each run starts from the filters of the seed sets. A run stops drawing
    once every node is infected in every seed set, as no count can change
    after.
    """
    sets, n = seed_masks.shape
    src, dst = graph.edge_sources, graph.indices.astype(np.int64, copy=False)
    # a step sorts its open slots by the key (target << shift) | slot, and
    # target < n, slot < 2m < 2**shift <= 4m: the keys fit in int64 while
    # n * 4m < 2**63
    shift = dst.size.bit_length()
    # the column of each step the caller reads
    reported = range(config.t_max + 1) if steps is None else list(steps)
    column = {step: index for index, step in enumerate(reported)}
    words = -(-sets // 64)
    start_words = _pack(seed_masks.T, words)
    # a node is saturated when infected in every seed set, and a slot is
    # live when its source is infected in some set
    every_set = _pack(np.ones(sets, dtype=bool), words)
    start_saturated = (start_words == every_set).all(axis=1)
    start_live = start_words.any(axis=1).take(src)
    seeded = np.count_nonzero(seed_masks, axis=1)
    # one buffer each, reset by every run: a fresh copy per run raised the
    # peak RSS of a large spread by about a megabyte
    infected = np.empty_like(start_words)
    saturated = np.empty_like(start_saturated)
    live = np.empty_like(start_live)
    # the selection's per-slot scratch, written in place
    hit = np.empty_like(start_live)
    for run in range(config.runs) if runs is None else runs:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, run)))
        infected[...] = start_words
        saturated[...] = start_saturated
        live[...] = start_live
        counts = np.zeros((sets, len(reported)), dtype=np.int64)
        if 0 in column:
            counts[:, column[0]] = seeded
        # ndarray methods rather than np.* wrappers, and no np.diff: on a
        # tiny graph each step is a few dozen microsecond-sized calls
        for t in range(1, config.t_max + 1):
            if np.count_nonzero(saturated) == n:
                # every set has all n nodes at this and every later step
                # (count_nonzero is one C call, a third of the cost of
                # ndarray.all on a tiny graph)
                counts[:, bisect_left(reported, t) :] = n
                break
            selection = _select(rng, config.beta, live, saturated, dst, shift, hit)
            if selection is None:
                fresh = None
            else:
                slots, starts, nodes = selection
                fresh, after = _reduce(infected, src, slots, starts, nodes)
                # a node reached for the first time adds its out-slots to the
                # live mask, which its first out-slot records; every reached
                # node has one, as the slot into it has a reverse
                reached = live.take(graph.indptr.take(nodes))
                if not reached.all():
                    new = nodes[~reached]
                    live[_adjacency_slots(graph.indptr, new, graph.degrees.take(new))] = True
                saturated[nodes] = (after == every_set).all(axis=1)
            if steps is None:
                # every step is read: add the bits this step infected
                counts[:, t] = counts[:, t - 1]
                if fresh is not None:
                    counts[:, t] += _bits(fresh, sets).sum(axis=0, dtype=np.int32)
            elif t in column:
                counts[:, column[t]] = _bits(infected, sets).sum(axis=0, dtype=np.int32)
        yield counts


def simulate_si(graph: Graph, seeds: Iterable[int], config: SIConfig) -> np.ndarray:
    """Run an ensemble of spreading trajectories from one seed set.

    Returns the read-only (runs, t_max + 1) int64 array of each run's
    infected count at t = 0 .. t_max; ``.mean(axis=0)`` is the mean
    infection curve. It is bit-identical for identical (graph, seeds, config).
    """
    seed_nodes = _node_indices(list(seeds), graph.n)
    if seed_nodes.size == 0:
        raise ValueError("seed set must not be empty")
    mask = np.zeros((1, graph.n), dtype=bool)
    mask[0, seed_nodes] = True
    curves = np.stack([counts[0] for counts in _infected_counts(graph, mask, config)])
    curves.setflags(write=False)
    return curves


def spreading_powers(graph: Graph, configs: Sequence[SIConfig]) -> list[np.ndarray]:
    """Mean final infected count per node, seeding alone, for each config.

    This is the simulation ground truth that rankings are correlated
    against. Every config must share ``seed`` and ``runs``, so every node's
    ensemble reuses the same derived streams (common random numbers) and
    scores are directly comparable across nodes and across configs.

    One engine pass per distinct beta and block of nodes serves every
    config at that beta: it runs to the beta's last horizon and counts
    infections only at its distinct horizons, and each config reads the
    column at its own ``t_max``. At beta = 1 every draw opens every slot, so
    all runs agree and that beta takes one run, which gives each node the
    size of its hop ball of radius ``t_max``.

    The betas go in ascending order, and a pass skips the runs that a lower
    beta's pass of its block saw saturated (all n nodes in every seed set)
    at or before the pass's first horizon. Under the same draws a higher
    beta opens every slot a lower one opens, and no infection is ever lost,
    so such a run counts n in every set at each of the pass's horizons; it
    adds exactly n to the integer totals, which give the same means as
    simulating it.

    The vectors are read-only: configs with the same beta and ``t_max``
    get the same vector.
    """
    configs = list(configs)
    if not configs:
        return []
    if len({(config.seed, config.runs) for config in configs}) > 1:
        raise ValueError("spreading_powers needs configs that share seed and runs")
    n = graph.n
    powers = {(config.beta, config.t_max): np.empty(n) for config in configs}
    # the 1 keeps a graph with no nodes (and no slots) from dividing by 0
    block = max(1, 8 * _BLOCK_BYTES // max(graph.indices.size, n, 1))
    # (block start, run) -> the first horizon at which a lower beta's pass
    # counted all n nodes in every seed set of the block
    saturated_by = {}
    for beta in sorted({beta for beta, _ in powers}):
        horizons = sorted(t_max for own, t_max in powers if own == beta)
        runs = 1 if beta == 1.0 else configs[0].runs
        config = SIConfig(beta, horizons[-1], runs, configs[0].seed)
        for start in range(0, n, block):
            size = min(block, n - start)
            seeds = np.eye(size, n, k=start, dtype=bool)
            todo = [
                run for run in range(runs) if saturated_by.get((start, run), np.inf) > horizons[0]
            ]
            # each skipped run counts n in every set at every horizon
            total = np.full((size, len(horizons)), n * (runs - len(todo)), dtype=np.int64)
            counts = _infected_counts(graph, seeds, config, steps=horizons, runs=todo)
            for run, run_counts in zip(todo, counts):
                total += run_counts
                full = (run_counts == n).all(axis=0)
                if full.any():
                    first = horizons[full.argmax()]
                    saturated_by[start, run] = min(first, saturated_by.get((start, run), np.inf))
            for column, t_max in enumerate(horizons):
                powers[beta, t_max][start : start + size] = total[:, column] / runs
    for power in powers.values():
        power.setflags(write=False)
    return [powers[config.beta, config.t_max] for config in configs]


def spreading_power(graph: Graph, config: SIConfig) -> np.ndarray:
    """Mean final infected count when each node seeds the epidemic alone.

    The one-config case of :func:`spreading_powers`.
    """
    return spreading_powers(graph, [config])[0]


def top_k_infection_curves(
    graph: Graph,
    rankings: Sequence[tuple[str, np.ndarray]],
    k: int,
    config: SIConfig,
) -> dict[str, np.ndarray]:
    """Mean infection curve per measure when its top-k nodes seed together.

    ``rankings`` pairs each measure's name with its node order (see
    :func:`centrality.rank`).

    Every measure's ensemble runs under the same config and the same derived
    streams, so curves differ only through the seed sets; identical rankings
    produce identical curves. Each order must hold at least k distinct
    nodes, and each name must be given once.
    """
    if not 0 < k <= graph.n:
        raise ValueError(f"k must be in [1, {graph.n}], got {k}")
    names = [name for name, _ in rankings]
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise ValueError(f"rankings named more than once: {', '.join(repeated)}")
    seeds = np.zeros((len(rankings), graph.n), dtype=bool)
    for row, (name, order) in zip(seeds, rankings):
        nodes = _node_order(order, graph.n)
        if nodes.size < k:
            raise ValueError(f"k={k} exceeds the length {nodes.size} of {name}'s order")
        row[nodes[:k]] = True
    total = sum(_infected_counts(graph, seeds, config))
    means = total / config.runs
    return dict(zip(names, means))
