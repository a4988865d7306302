"""Random-walk effective distance between node pairs.

The distance from m to n is ``1 - log2(p*)`` where ``p*`` is the largest
probability of any walk from m to n under uniform single-step transitions
(1/degree per neighbor). The constant 1 is added once per pair, not per hop.
Because each step multiplies the probability by 1/degree of the node being
left, the optimal walk is a shortest path under per-edge weight
``log2(degree(u))`` for the edge leaving u. Those shortest paths are found
by label correction, a block of sources at a time, relaxing in each round
the edges out of every node whose distance dropped in the round before.
Rounds come in three kinds, picked by frontier size as in
direction-optimising BFS (Beamer et al., SC 2012):

- once at least a third of the block's labels dropped, a round relaxes
  every adjacency slot of the block, with no gather of the dropped nodes'
  slots, and finds the lowered labels with one compare of all of them
  against the round's start;
- otherwise a round that expands at least as many adjacency slots as the
  block has labels is dense: it scatters every candidate of the dropped
  nodes with a minimum and finds the lowered labels the same way;
- a smaller round keeps only the candidates below their target's label
  and deduplicates those targets with a scatter.

All three lower the same labels to the same values. Relaxing every slot
is exact because a finite label that did not drop in the round before
was set earlier (a source's 0 at the start) and expanded in the round
after that, with the value it still has: its candidates are already
applied, and a minimum with them again changes nothing. An infinite
label offers only infinite candidates. So the switch changes the time
only: on scale-free graphs the middle rounds relax everything or are
dense, while the first and last rounds and every round on a long cycle
are small. A round depends only on which nodes dropped, not on their
order, and taking the minimum is exact, so the fixpoint does not depend
on it either. The quantity is asymmetric even on undirected graphs, and
the self-distance is infinite (a walk never "arrives" at its start).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .graph import Graph, _adjacency_slots, _source_blocks

# A round relaxes every slot of the union once this many times its dropped
# labels reach the block's labels, that is, once a third of them dropped.
_RELAX_ALL_FACTOR = 3


def effective_distance_matrix(graph: Graph) -> np.ndarray:
    """All-pairs effective distances, one float row per source.

    Row s holds ``inf`` for s itself and for targets it cannot reach.
    Finite entries are always >= 1, and a node whose best walk from s is
    its direct edge sits at exactly ``1 + log2(degree(s))``.
    """
    if graph.n == 0:
        raise ValueError("effective distances are undefined for an empty graph")
    matrix = np.empty((graph.n, graph.n), dtype=np.float64)
    for block, rows in _effective_rows(graph, np.arange(graph.n)):
        matrix[block] = rows
    return matrix


def _effective_rows(graph: Graph, sources: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Effective-distance rows from ``sources``, one block at a time.

    Yields ``(block, rows)`` in order, ``block`` a slice of ``sources`` and
    ``rows[r]`` the row of ``block[r]``, laid out as a row of
    :func:`effective_distance_matrix`. Each block's label correction
    runs on a disjoint union of the graph, one copy per source (see
    :func:`graph._source_blocks`); the copies never meet, so every row is
    the fixpoint its source reaches alone.
    """
    n = graph.n
    union, blocks = _source_blocks(graph, sources)
    size = union.degrees.size
    # weight of every edge leaving u, looked up by u's degree; isolated
    # nodes have no outgoing edges. math.log2 of each distinct degree is
    # correctly rounded on every CPU, where numpy's SIMD log2 can miss by
    # the last bit (it does at 1621 on AVX-512).
    distinct = np.flatnonzero(np.bincount(graph.degrees))
    cost_by_degree = np.zeros(distinct.max(initial=0) + 1)
    cost_by_degree[distinct] = [math.log2(max(degree, 1)) for degree in distinct.tolist()]
    leave_cost = cost_by_degree.take(union.degrees)
    # scratch for deduplicating a small round's targets, and the labels at
    # the start of a dense or relax-all round; only entries a round writes
    # are read back
    seen = np.zeros(size, dtype=np.int64)
    before = np.empty(size, dtype=np.float64)
    for block, starts in blocks:
        dist = np.full(size, np.inf, dtype=np.float64)
        dist[starts] = 0.0
        dropped = starts
        while dropped.size:
            relax_all = _RELAX_ALL_FACTOR * dropped.size >= size
            if relax_all:
                # every slot's candidate, with no gather of the dropped
                # nodes' slots; the labels that did not drop lower nothing
                # (see the module docstring)
                targets = union.indices
                candidates = (dist + leave_cost).repeat(union.degrees)
            else:
                counts = union.degrees.take(dropped)
                targets = union.indices.take(_adjacency_slots(union.indptr, dropped, counts))
                candidates = (dist.take(dropped) + leave_cost.take(dropped)).repeat(counts)
            # Only strictly lower labels enter the next round, so the rounds
            # end. Adding a non-negative cost is monotone in floating point,
            # so the fixpoint is the least float path sum, which is what a
            # heap Dijkstra returns too, bit for bit.
            if relax_all or targets.size >= size:
                # dense: scatter every candidate, then one compare of all
                # the labels with the round's start finds the lowered ones
                np.copyto(before, dist)
                np.minimum.at(dist, targets, candidates)
                dropped = (dist < before).nonzero()[0]
            else:
                # small: scatter only the candidates below their target's label
                better = (candidates < dist.take(targets)).nonzero()[0]
                targets = targets.take(better)
                np.minimum.at(dist, targets, candidates.take(better))
                # one copy of each lowered node, whichever the scatter kept
                position = np.arange(targets.size)
                seen[targets] = position
                dropped = targets.take((seen.take(targets) == position).nonzero()[0])
        rows = dist[: block.size * n].reshape(block.size, n) + 1.0
        rows[np.arange(block.size), block] = np.inf
        yield block, rows
