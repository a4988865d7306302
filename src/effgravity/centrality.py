"""Node-influence measures and deterministic rankings.

Seven measures each return a ScoreVector, which :func:`rank` turns into a
node order: degree (dc), betweenness (bc), closeness (cc), eigenvector (ec),
pagerank, the degree-gravity score over hop distances (gm), and the same
gravity score over effective distances (effg). All are pure functions of
the immutable graph, so they can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import MEASURES, ConvergenceError
from . import effective_distance as ed
from .graph import Graph, _adjacency_slots, _source_blocks, gravity_sums

# the convergence tolerance and iteration cap of ec and pagerank
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class ScoreVector:
    """Per-node scores for one measure, plus solver metadata where relevant."""

    measure: str
    scores: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise ValueError(f"{self.measure}: scores must all be finite")


def rank(score_vector: ScoreVector) -> np.ndarray:
    """Order nodes by descending score; equal scores keep ascending index order.

    Returns the read-only int64 node order: ``order[i]`` has rank i + 1, and
    two runs over the same graph produce identical orders.
    """
    order = np.argsort(-score_vector.scores, kind="stable")
    order.setflags(write=False)
    return order


def _neighbor_sums(graph: Graph, values: np.ndarray) -> np.ndarray:
    """Adjacency matrix times a vector: sum of ``values`` over each node's neighbors."""
    return np.bincount(
        graph.edge_sources, weights=values[graph.indices], minlength=graph.n
    )


def degree_centrality(graph: Graph) -> ScoreVector:
    """Score each node by its degree."""
    return ScoreVector("dc", graph.degrees.astype(np.float64))


# Marks an unused entry of the scratch array that _first_occurrences takes.
_NOT_SEEN = np.iinfo(np.int64).max


def _first_occurrences(values: np.ndarray, first_seen: np.ndarray) -> np.ndarray:
    """Distinct entries of ``values`` in the order they first appear.

    ``first_seen`` is int64 scratch indexed by value. It must hold
    ``_NOT_SEEN`` wherever ``values`` points, and it does again on return, so
    a caller allocates it once (``np.full(n, _NOT_SEEN)``) for many calls.
    Unlike ``np.unique`` it does not sort, and it does not import
    ``numpy.ma``, which ``np.unique`` does on first use in numpy 2.4 and
    which adds about 1.6 MB to a process's peak RSS.

    Brandes betweenness needs it because each BFS level there must keep
    FIFO order. The label correction in ``effective_distance`` needs only a
    distinct set, in any order.
    """
    position = np.arange(values.size)
    np.minimum.at(first_seen, values, position)
    distinct = values.take((first_seen.take(values) == position).nonzero()[0])
    first_seen[distinct] = _NOT_SEEN
    return distinct


def betweenness_centrality(graph: Graph) -> ScoreVector:
    """Count, per node, the fraction of shortest paths passing through it.

    Sums N_jk(i)/N_jk over unordered pairs {j, k} with i strictly interior.
    Uses Brandes' dependency accumulation over each source's BFS
    shortest-path DAG, one whole BFS level at a time, then halves to convert
    ordered pairs to unordered. Disconnected pairs contribute nothing.

    The sources run in blocks, one per copy of a disjoint union of the
    graph (see :func:`graph._source_blocks`), so a level of the sweep is
    the same level of every source in the block, source by source. Each
    source's part of a level is kept in the order a FIFO queue would visit
    it. The forward pass records each level's DAG edges into the level
    before as (predecessor, successor) pairs in the reverse of that order,
    and the backward pass walks the levels from the last to the first. So
    every path count and dependency receives its additions in the same
    order as the node-by-node algorithm, and each source's dependencies are
    added to the scores in source order: the scores match it bit for bit.
    A source keeps at most one pair per edge.
    """
    n = graph.n
    bc = np.zeros(n, dtype=np.float64)
    union, blocks = _source_blocks(graph, np.arange(n))
    indices, degrees = union.indices, union.degrees
    size = degrees.size
    first_seen = np.full(size, _NOT_SEEN)
    for block, starts in blocks:
        sigma = np.zeros(size, dtype=np.float64)
        sigma[starts] = 1.0
        dist = np.full(size, -1, dtype=np.int64)
        dist[starts] = 0
        level, depth = starts, 0
        # (predecessors, successors): each level's DAG edges into the level
        # before, in reverse FIFO order
        dag = []
        while True:
            count = degrees.take(level)
            targets = indices.take(_adjacency_slots(union.indptr, level, count))
            # each slot's source is its level node, repeated over its slots
            sources = level.repeat(count)
            seen = dist.take(targets)
            if depth:
                back = (seen == depth - 1).nonzero()[0][::-1]
                dag.append((targets.take(back), sources.take(back)))
            # unvisited before this level is exactly at ``depth + 1`` after it,
            # so these are also the level's DAG edges
            on_dag = (seen < 0).nonzero()[0]
            reached = targets.take(on_dag)
            fresh = _first_occurrences(reached, first_seen)
            if not fresh.size:
                break
            dist[fresh] = depth + 1
            np.add.at(sigma, reached, sigma.take(sources.take(on_dag)))
            level, depth = fresh, depth + 1
        delta = np.zeros(size, dtype=np.float64)
        for preds, succs in reversed(dag):
            np.add.at(delta, preds, sigma[preds] * ((1.0 + delta[succs]) / sigma[succs]))
        delta[starts] = 0.0
        for row in delta.reshape(-1, n)[: block.size]:
            bc += row
    return ScoreVector("bc", bc / 2.0)


def closeness_centrality(graph: Graph) -> ScoreVector:
    """Reciprocal of the summed hop distance to all reachable peers; 0 with no peers."""
    total = graph.hop_sums.distance
    scores = np.divide(1.0, total, out=np.zeros(graph.n), where=total > 0)
    return ScoreVector("cc", scores)


def eigenvector_centrality(graph: Graph) -> ScoreVector:
    """Principal eigenvector of the adjacency matrix, unit Euclidean length.

    Power iteration starts from the uniform positive vector; iterating with
    the shift A + I keeps bipartite graphs (where -lambda is also an
    eigenvalue) from oscillating without changing the eigenvector. The
    eigenvalue estimate is the Rayleigh quotient of A, and convergence is
    declared when ||Ax - lambda*x|| <= DEFAULT_TOL, within DEFAULT_MAX_ITER
    iterations; ConvergenceError otherwise. On disconnected graphs the
    vector concentrates on the component with the largest eigenvalue.
    """
    if graph.m == 0:
        raise ValueError("eigenvector centrality requires at least one edge")
    n = graph.n
    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    eigenvalue = 0.0
    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        ax = _neighbor_sums(graph, x)
        # elementwise products and numpy's own sums, not BLAS ddot, whose
        # kernel (and so the last bits) depends on the CPU
        eigenvalue = float((x * ax).sum())
        error = ax - eigenvalue * x
        residual = float(np.sqrt((error * error).sum()))
        if residual <= DEFAULT_TOL:
            return ScoreVector(
                "ec",
                x,
                metadata={
                    "eigenvalue": eigenvalue,
                    "residual": residual,
                    "iterations": iteration - 1,
                },
            )
        shifted = ax + x
        x = shifted / np.sqrt((shifted * shifted).sum())
    raise ConvergenceError(
        f"eigenvector centrality did not reach tol={DEFAULT_TOL} after {DEFAULT_MAX_ITER} "
        f"iterations (last residual {residual:.3e}); power iteration converges "
        f"slowly on long-diameter graphs such as paths and grids, so leave ec "
        f"out of --measures there"
    )


def pagerank(graph: Graph, damping: float = 1.0) -> ScoreVector:
    """Random-walk influence scores by fixed-point iteration.

    Updates x(i) <- (1-d)/n_active + d * sum over neighbors j of
    x(j)/degree(j), with d the damping, starting from the uniform
    distribution, until the L1 change drops to DEFAULT_TOL, within
    DEFAULT_MAX_ITER iterations; ConvergenceError otherwise. The default
    d = 1.0 is the undamped update. It never converges when a component is
    bipartite with colour classes of different sizes: the uniform start
    then has a part that flips sign every step. A slowly mixing component,
    such as a long path or a large grid, can also run out of iterations.
    Pass d < 1 to damp it. Isolated nodes are pinned to score 0 and
    excluded from the uniform start and the damping redistribution.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    n = graph.n
    degrees = graph.degrees
    active = degrees > 0
    n_active = int(active.sum())
    if n_active == 0:
        return ScoreVector(
            "pagerank", np.zeros(n), metadata={"iterations": 0, "delta": 0.0}
        )
    x = np.where(active, 1.0 / n_active, 0.0)
    safe_degrees = np.maximum(degrees, 1).astype(np.float64)
    delta = np.inf
    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        spread = _neighbor_sums(graph, x / safe_degrees)
        x_next = np.where(active, (1.0 - damping) / n_active + damping * spread, 0.0)
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta <= DEFAULT_TOL:
            return ScoreVector(
                "pagerank", x, metadata={"iterations": iteration, "delta": delta}
            )
    raise ConvergenceError(
        f"pagerank did not reach tol={DEFAULT_TOL} after {DEFAULT_MAX_ITER} iterations "
        f"(last L1 change {delta:.3e}); bipartite graphs oscillate at "
        f"damping=1.0, retry with damping < 1"
    )


def gravity_centrality(graph: Graph) -> ScoreVector:
    """Degree-gravity score over hop distances.

    score(i) = degree(i) * sum over reachable j != i of degree(j)/d(i,j)^2,
    with no interaction radius cutoff. Unreachable pairs contribute nothing.
    """
    return ScoreVector("gm", graph.degrees.astype(np.float64) * graph.hop_sums.gravity)


def effg_centrality(graph: Graph) -> ScoreVector:
    """Degree-gravity score over effective distances.

    Same gravity sum as :func:`gravity_centrality` but separation is the
    outbound effective-distance row of each source (asymmetric), computed
    one block of rows at a time. Infinite entries, including the diagonal,
    contribute nothing.
    """
    degrees = graph.degrees.astype(np.float64)
    gravity = np.empty(graph.n, dtype=np.float64)
    for block, rows in ed._effective_rows(graph, np.arange(graph.n)):
        gravity[block] = gravity_sums(degrees, rows, np.isfinite(rows))
    return ScoreVector("effg", degrees * gravity)


def compute_scores(
    graph: Graph,
    measures: Sequence[str],
    damping: float = 1.0,
) -> Mapping[str, ScoreVector]:
    """Compute several measures at once, in the order requested.

    ``effg`` streams blocks of effective-distance rows, so no n x n matrix is built.
    Unknown measure names raise ValueError.
    """
    unknown = [name for name in measures if name not in MEASURES]
    if unknown:
        raise ValueError(
            f"unknown measures {unknown}; valid names are {', '.join(MEASURES)}"
        )
    scorers = {
        "dc": lambda: degree_centrality(graph),
        "bc": lambda: betweenness_centrality(graph),
        "cc": lambda: closeness_centrality(graph),
        "ec": lambda: eigenvector_centrality(graph),
        "pagerank": lambda: pagerank(graph, damping=damping),
        "gm": lambda: gravity_centrality(graph),
        "effg": lambda: effg_centrality(graph),
    }
    return {name: scorers[name]() for name in measures}
