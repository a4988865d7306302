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
# array of the engine stays near a megabyte (the per-level view of a step
# with several betas has levels * n rows, fewer than the 2m slots while the
# mean degree exceeds the level count), and a Jazz-sized graph (2m ~ 5k
# slots) simulates all of its nodes at four betas in one block.
_BLOCK_BYTES = 1 << 20


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack the last axis of a boolean array into ``words`` 64-bit words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def _level_table(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``betas`` and the level table.

    Row i of the table holds the seed sets still open at a draw with i
    levels at or below it, so row 0 holds every set. With no seed set at
    all there is one level, which opens nothing.
    """
    levels = np.array(sorted(set(betas.tolist())) or [0.0])
    return levels, _pack(betas >= levels[:, None], -(-betas.size // 64))


def _levels_at_or_below(levels: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """How many of the sorted ``levels`` are at or below each draw.

    Every draw is below the top level, so that one is not compared: the
    result equals ``levels.searchsorted(draws, side="right")``, and one
    compare per level and draw costs less than the binary search at every
    level count a pass has.
    """
    return (levels[:-1, None] <= draws).sum(axis=0, dtype=np.intp)


def _filters(
    words: np.ndarray, all_sets: np.ndarray, src: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node saturated and per-slot live filters of infected ``words``.

    A node is saturated when its words equal ``all_sets``, infected in every
    carried seed set; a slot is live when its source is infected in some
    set.
    """
    return (words == all_sets).all(axis=1), words.any(axis=1).take(src)


def _select(
    rng: np.random.Generator,
    top: float,
    live: np.ndarray,
    saturated: np.ndarray,
    dst: np.ndarray,
    shift: int,
    hit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """One step's selection of open slots, shared by every carried seed set.

    Draws one uniform per adjacency slot and keeps the slots that are open
    for some set (draw below the ``top`` level), ``live`` (source infected
    in some set) and into a target that is not ``saturated`` (susceptible
    in some set): any other open slot would only OR zero bits into its
    target. The live test is ANDed into the draw compare, so ``nonzero``
    finds only open slots out of seeds and out of nodes that an earlier
    step reached.

    Returns the kept slots sorted by target, their draws, the start of each
    target's group among them and the targets, or None when no slot is
    kept. The kept slots' keys are (target << shift) | slot, with ``shift``
    wide enough for every slot. ``hit`` is per-slot scratch: the draw
    compare, then the group starts.
    """
    draws = rng.random(dst.size)
    np.less(draws, top, out=hit)
    hit &= live
    slots = hit.nonzero()[0]
    slots = slots.take((~saturated.take(dst.take(slots))).nonzero()[0])
    if slots.size == 0:
        return None
    # group the open slots by target, one reduceat segment per node: numpy
    # sorts int64 keys with SIMD but not an argsort, and within a target the
    # keys keep slot order, which neither the OR nor the per-slot draws
    # depend on
    keys = dst.take(slots)
    keys <<= shift
    keys |= slots
    keys.sort()
    slots = keys & ((1 << shift) - 1)
    targets = keys >> shift
    # keep only the kept slots' draws: the 2m draws are freed before the
    # group starts are allocated
    draws = draws.take(slots)
    head = hit[: targets.size]
    head[0] = True
    np.not_equal(targets[1:], targets[:-1], out=head[1:])
    starts = head.nonzero()[0]
    return slots, draws, starts, targets.take(starts)


def _reduce(
    infected: np.ndarray,
    src: np.ndarray,
    levels: np.ndarray,
    open_sets: np.ndarray,
    slots: np.ndarray,
    draws: np.ndarray,
    starts: np.ndarray,
    nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """OR the words each group of selected slots carries into its target.

    ``slots``, ``draws``, ``starts`` and ``nodes`` are one step's
    selection (see :func:`_select`). Updates the ``nodes``' rows of
    ``infected`` in place and returns their new bits and their words after
    the step.

    The sets open at a slot are nested (every set whose beta exceeds the
    draw), so they are one row of the phase's level table ``open_sets``,
    indexed by the slot's level: how many of the distinct betas ``levels``
    are at or below its draw. Each slot's words are one row of the
    per-level view of the infected words, taken in one gather: with one
    level the view is ``infected`` and the row is the slot's source; with
    several, block c of the view is ``infected`` ANDed with row c of
    ``open_sets`` and the row is level * n + source.
    """
    n = infected.shape[0]
    rows = src.take(slots)
    view = infected
    if levels.size > 1:
        # block 0 is infected, as open_sets[0] is every carried set
        view = np.bitwise_and(infected, open_sets[:, None]).reshape(-1, infected.shape[1])
        level = _levels_at_or_below(levels, draws)
        level *= n
        rows += level
    # take, as row gathers by fancy indexing are several times slower
    carried = view.take(rows, axis=0)
    before = infected.take(nodes, axis=0)
    fresh = np.bitwise_or.reduceat(carried, starts, axis=0) & ~before
    after = before | fresh
    infected[nodes] = after
    return fresh, after


def _infected_counts(
    graph: Graph,
    seed_masks: np.ndarray,
    betas: Sequence[float],
    t_max: int,
    runs: int,
    seed: int,
    *,
    steps: Sequence[int] | None = None,
    ends: Sequence[int] | None = None,
) -> Iterator[np.ndarray]:
    """Infected counts of one run at a time, shape (seed sets, t_max + 1)
    or, with ``steps``, (seed sets, len(steps)).

    ``seed_masks`` is a boolean (seed sets, n) array and ``betas`` gives
    each seed set its transmission probability. All seed sets advance
    together: run r builds one generator and draws one uniform per
    adjacency slot per step, and every seed set reads those same draws. A
    slot is open for a seed set when its draw is below that set's beta, and
    a node becomes infected when the source of any of its open incoming
    slots was infected before the step.

    ``steps``, if given, are the sorted steps in [0, t_max] whose counts the
    caller reads, and each run yields only those columns. Each is counted
    once, from the infected words of all n nodes, instead of adding up every
    step's newly infected bits.

    ``ends``, if given, is each seed set's last step in [0, t_max], not
    increasing from one set to the next (by default every set ends at
    ``t_max``). After the step where a tail of sets ends, the pass drops
    them: it cuts the words to the sets still carried, and takes its
    levels, its compare threshold and its per-node and per-slot filters
    from those sets alone. A set's columns after its last step read 0.

    Seed sets are bits, 64 to a word per node. Each step is two stages:
    :func:`_select` draws and picks the open slots that can infect some
    set, grouped by target, and :func:`_reduce` ORs each group's words into
    its target. The selection reads two filters, a per-slot live mask and
    a per-node saturated one. The live mask is the only record of reached
    nodes: a node a step reaches has an out-slot (the reverse of the slot
    into it), and it was reached before when its first out-slot is live;
    a node's out-slots join the mask on the step that first reaches it.
    One builder, :func:`_filters`, makes both filters from the infected
    words, for the pass start and after each step where a tail of sets
    ends; each run starts from the pass-start copies. A run stops drawing
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
    reported = range(t_max + 1) if steps is None else list(steps)
    column = {step: index for index, step in enumerate(reported)}
    betas = np.asarray(betas, dtype=np.float64)
    ends = np.full(sets, t_max) if ends is None else np.asarray(ends, dtype=np.int64)
    # t_max >= ends[0] >= ends[1] >= ... >= 0
    bounds = np.concatenate(([t_max], ends.ravel(), [0]))
    if ends.shape != (sets,) or np.any(bounds[1:] > bounds[:-1]):
        raise ValueError(f"ends must be {sets} non-increasing steps in [0, {t_max}]")
    # per set and column: the column is at or before the set's last step
    within = np.asarray(reported)[None, :] <= ends[:, None]
    # each phase of the pass: the sets it carries, which are those that end
    # later, and their distinct betas and level table, from the start and
    # after each step where some sets end; sets that end at step 0 are never
    # carried
    kept_after = {0: sets} | {end: np.count_nonzero(ends > end) for end in set(ends.tolist())}
    phases = {
        step: (kept, *_level_table(betas[:kept]))
        for step, kept in kept_after.items()
        if step < t_max or step == 0
    }
    start = phases.pop(0)
    kept, _, open_sets = start
    start_words = _pack(seed_masks[:kept].T, open_sets.shape[1])
    start_saturated, start_live = _filters(start_words, open_sets[0], src)
    seeded = np.count_nonzero(seed_masks, axis=1)
    # one buffer each, reset by every run (infected until its first phase
    # change): a fresh copy per run raised the peak RSS of a large spread by
    # about a megabyte
    infected_buffer = np.empty_like(start_words)
    saturated = np.empty_like(start_saturated)
    live = np.empty_like(start_live)
    # the selection's per-slot scratch, written in place
    hit = np.empty_like(start_live)
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        infected = infected_buffer
        infected[...] = start_words
        saturated[...] = start_saturated
        live[...] = start_live
        kept, levels, open_sets = start
        counts = np.zeros((sets, len(reported)), dtype=np.int64)
        if 0 in column:
            counts[:, column[0]] = seeded
        # ndarray methods rather than np.* wrappers, and no np.diff: on a
        # tiny graph each step is a few dozen microsecond-sized calls
        for t in range(1, t_max + 1):
            if np.count_nonzero(saturated) == n:
                # every carried set has all n nodes at this and every later
                # step it reads (count_nonzero is one C call, a third of the
                # cost of ndarray.all on a tiny graph)
                since = bisect_left(reported, t)
                np.copyto(counts[:kept, since:], n, where=within[:kept, since:])
                break
            selection = _select(rng, levels[-1], live, saturated, dst, shift, hit)
            if selection is None:
                fresh = None
            else:
                slots, draws, starts, nodes = selection
                fresh, after = _reduce(
                    infected, src, levels, open_sets, slots, draws, starts, nodes
                )
                # a node reached for the first time adds its out-slots to the
                # live mask, which its first out-slot records; every reached
                # node has one, as the slot into it has a reverse
                reached = live.take(graph.indptr.take(nodes))
                if not reached.all():
                    new = nodes[~reached]
                    live[_adjacency_slots(graph.indptr, new, graph.degrees.take(new))] = True
                saturated[nodes] = (after == open_sets[0]).all(axis=1)
            if steps is None:
                # every step is read: add the bits this step infected
                counts[:kept, t] = counts[:kept, t - 1]
                if fresh is not None:
                    counts[:kept, t] += _bits(fresh, kept).sum(axis=0, dtype=np.int32)
            elif t in column:
                counts[:kept, column[t]] = _bits(infected, kept).sum(axis=0, dtype=np.int32)
            if t in phases:
                # a tail of sets ends here: cut their words and bits off and
                # rebuild the filters from the sets still carried
                kept, levels, open_sets = phases[t]
                infected = np.ascontiguousarray(infected[:, : open_sets.shape[1]])
                if kept % 64:
                    infected[:, -1] &= open_sets[0, -1]
                saturated[...], live[...] = _filters(infected, open_sets[0], src)
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
    runs = _infected_counts(graph, mask, [config.beta], config.t_max, config.runs, config.seed)
    curves = np.stack([counts[0] for counts in runs])
    curves.setflags(write=False)
    return curves


def spreading_powers(graph: Graph, configs: Sequence[SIConfig]) -> list[np.ndarray]:
    """Mean final infected count per node, seeding alone, for each config.

    This is the simulation ground truth that rankings are correlated
    against. Every config must share ``seed`` and ``runs``, so every node's
    ensemble reuses the same derived streams (common random numbers) and
    scores are directly comparable across nodes and across configs.

    One engine pass per block of nodes serves every config with beta < 1:
    the block is stacked once per distinct beta, all of them read each
    step's one draw per slot, and the pass runs to the longest horizon. It
    counts infections only at the distinct horizons, and each config reads
    the column at its own ``t_max``. The sets of a beta leave the pass after
    the last horizon read at that beta, so a short sweep and a long
    rank-vs-spread horizon cost no more in one call than in two. At beta = 1
    every draw opens every slot, so all runs agree and those configs take
    one run of their own, which gives each node the size of its hop ball of
    radius ``t_max``; they stay out of the beta < 1 pass, where their level
    would open every slot for the other seed sets too.

    The vectors are read-only: configs with the same beta and ``t_max``
    get the same vector.
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
        # each beta's last horizon; the betas are stacked from the latest
        # last horizon down, so the sets of a beta leave the pass once its
        # last horizon is read
        last = {}
        for beta, t_max in group:
            last[beta] = max(last.get(beta, 0), t_max)
        levels = sorted(last, key=lambda beta: (-last[beta], beta))
        horizons = sorted({t_max for _, t_max in group})
        # the 1 keeps a graph with no nodes (and no slots) from dividing by 0
        block = max(1, 8 * _BLOCK_BYTES // (len(levels) * max(graph.indices.size, n, 1)))
        for start in range(0, n, block):
            size = min(block, n - start)
            seeds = np.tile(np.eye(size, n, k=start, dtype=bool), (len(levels), 1))
            betas = np.repeat(levels, size)
            ends = np.repeat([last[beta] for beta in levels], size)
            total = sum(
                _infected_counts(
                    graph, seeds, betas, horizons[-1], runs, seed, steps=horizons, ends=ends
                )
            )
            for beta, t_max in group:
                offset = levels.index(beta) * size
                column = total[offset : offset + size, horizons.index(t_max)]
                powers[beta, t_max][start : start + size] = column / runs
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
    betas = [config.beta] * len(seeds)
    total = sum(_infected_counts(graph, seeds, betas, config.t_max, config.runs, config.seed))
    means = total / config.runs
    return dict(zip(names, means))
