"""Random-walk effective distance between node pairs.

The distance from m to n is ``1 - log2(p*)`` where ``p*`` is the largest
probability of any walk from m to n under uniform single-step transitions
(1/degree per neighbor). The constant 1 is added once per pair, not per hop.
Because each step multiplies the probability by 1/degree of the node being
left, the optimal walk is a shortest path under per-edge weight
``log2(degree(u))`` for the edge leaving u. :func:`effective_distances`
finds those shortest paths by label correction, relaxing in each round the
edges out of every node whose distance dropped in the round before. The
quantity is asymmetric even on undirected graphs, and the self-distance is
infinite (a walk never "arrives" at its start).
"""

from __future__ import annotations

import csv
from typing import IO

import numpy as np

from .graph import _NOT_SEEN, Graph, _adjacency_slots, _first_occurrences


def effective_distances(graph: Graph, source: int) -> np.ndarray:
    """Effective distances from ``source`` to every node.

    Returns a float row with ``inf`` for the source itself and for
    unreachable targets. Finite entries are always >= 1, and a node whose
    best walk is its direct edge sits at exactly ``1 + log2(degree(source))``.
    """
    graph.check_node(source)
    n = graph.n
    # weight of every edge leaving u; isolated nodes have no outgoing edges
    leave_cost = np.log2(np.maximum(graph.degrees, 1)).astype(np.float64)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    dropped = np.array([source], dtype=np.int64)
    first_seen = np.full(n, _NOT_SEEN)
    while dropped.size:
        targets = graph.indices[_adjacency_slots(graph, dropped)]
        candidates = np.repeat(dist[dropped] + leave_cost[dropped], graph.degrees[dropped])
        # Only strictly lower labels enter the next round, so the rounds end.
        # Adding a non-negative cost is monotone in floating point, so the
        # fixpoint is the least float path sum, which is what a heap Dijkstra
        # returns too, bit for bit.
        better = candidates < dist[targets]
        targets = targets[better]
        np.minimum.at(dist, targets, candidates[better])
        dropped = _first_occurrences(targets, first_seen)
    result = dist + 1.0
    result[source] = np.inf
    return result


def effective_distance_matrix(graph: Graph) -> np.ndarray:
    """All-pairs effective distances, one independently computed row per source."""
    if graph.n == 0:
        raise ValueError("effective distances are undefined for an empty graph")
    return np.stack([effective_distances(graph, s) for s in range(graph.n)])


def write_matrix_csv(graph: Graph, matrix: np.ndarray, out: IO[str]) -> None:
    """Dump a distance matrix as CSV: target labels across, one row per source.

    Entries are written by ``repr``, so infinite ones read ``inf``; labels
    holding a comma or a quote are quoted.
    """
    if matrix.shape != (graph.n, graph.n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match graph with {graph.n} nodes"
        )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", *graph.labels])
    for label, row in zip(graph.labels, matrix):
        writer.writerow([label, *map(float, row)])
