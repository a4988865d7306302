"""Node-influence measures and deterministic rankings.

Seven measures share the ScoreVector/Ranking interface: degree (dc),
betweenness (bc), closeness (cc), eigenvector (ec), pagerank, the
degree-gravity score over hop distances (gm), and the same gravity score
over effective distances (effg). All are pure functions of the immutable
graph, so they can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import effective_distance as ed
from .graph import _NOT_SEEN, Graph, _adjacency_slots, _first_occurrences, gravity_sum

MEASURES = ("dc", "bc", "cc", "ec", "pagerank", "gm", "effg")

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


class ConvergenceError(RuntimeError):
    """An iterative measure failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class ScoreVector:
    """Per-node scores for one measure, plus solver metadata where relevant."""

    measure: str
    scores: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise ValueError(f"{self.measure}: scores must all be finite")


@dataclass(frozen=True)
class Ranking:
    """Descending-score node order with 1-based rank per node.

    Ties are broken by ascending node index, so two runs over the same
    graph produce identical rankings.
    """

    order: np.ndarray
    ranks: np.ndarray

    def top(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.order.size:
            raise ValueError(f"k={k} out of range for {self.order.size} nodes")
        return self.order[:k]


def rank(score_vector: ScoreVector) -> Ranking:
    """Order nodes by descending score; equal scores keep ascending index order."""
    scores = score_vector.scores
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    order.setflags(write=False)
    ranks.setflags(write=False)
    return Ranking(order=order, ranks=ranks)


def _neighbor_sums(graph: Graph, values: np.ndarray) -> np.ndarray:
    """Adjacency matrix times a vector: sum of ``values`` over each node's neighbors."""
    if graph.indices.size == 0:
        return np.zeros(graph.n, dtype=np.float64)
    return np.bincount(
        graph.edge_sources, weights=values[graph.indices], minlength=graph.n
    )


def degree_centrality(graph: Graph) -> ScoreVector:
    """Score each node by its degree."""
    return ScoreVector("dc", graph.degrees.astype(np.float64))


def betweenness_centrality(graph: Graph) -> ScoreVector:
    """Count, per node, the fraction of shortest paths passing through it.

    Sums N_jk(i)/N_jk over unordered pairs {j, k} with i strictly interior.
    Uses Brandes' dependency accumulation over each source's BFS
    shortest-path DAG, one whole BFS level at a time, then halves to convert
    ordered pairs to unordered. Disconnected pairs contribute nothing.

    Each level is kept in the order a FIFO queue would visit it, and the
    backward pass walks each level in reverse, so every path count and
    dependency receives its additions in the same order as the node-by-node
    algorithm and the scores match it bit for bit.
    """
    n = graph.n
    indices, edge_sources = graph.indices, graph.edge_sources
    bc = np.zeros(n, dtype=np.float64)
    first_seen = np.full(n, _NOT_SEEN)
    for s in range(n):
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        levels = [np.array([s], dtype=np.int64)]
        while True:
            depth = len(levels)
            slots = _adjacency_slots(graph, levels[-1])
            targets = indices[slots]
            fresh = _first_occurrences(targets[dist[targets] < 0], first_seen)
            if not fresh.size:
                break
            dist[fresh] = depth
            on_dag = dist[targets] == depth
            np.add.at(sigma, targets[on_dag], sigma[edge_sources[slots[on_dag]]])
            levels.append(fresh)
        delta = np.zeros(n, dtype=np.float64)
        for depth in range(len(levels) - 1, 0, -1):
            level = levels[depth][::-1]
            coeff = (1.0 + delta[level]) / sigma[level]
            preds = indices[_adjacency_slots(graph, level)]
            on_dag = dist[preds] == depth - 1
            preds = preds[on_dag]
            np.add.at(
                delta, preds, sigma[preds] * np.repeat(coeff, graph.degrees[level])[on_dag]
            )
        delta[s] = 0.0
        bc += delta
    return ScoreVector("bc", bc / 2.0)


def closeness_centrality(graph: Graph) -> ScoreVector:
    """Reciprocal of the summed hop distance to all reachable peers; 0 with no peers."""
    total = graph.hop_sums.distance
    scores = np.divide(1.0, total, out=np.zeros(graph.n), where=total > 0)
    return ScoreVector("cc", scores)


def eigenvector_centrality(
    graph: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> ScoreVector:
    """Principal eigenvector of the adjacency matrix, unit Euclidean length.

    Power iteration starts from the uniform positive vector; iterating with
    the shift A + I keeps bipartite graphs (where -lambda is also an
    eigenvalue) from oscillating without changing the eigenvector. The
    eigenvalue estimate is the Rayleigh quotient of A, and convergence is
    declared when ||Ax - lambda*x|| <= tol. On disconnected graphs the
    vector concentrates on the component with the largest eigenvalue.
    """
    if graph.m == 0:
        raise ValueError("eigenvector centrality requires at least one edge")
    n = graph.n
    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    eigenvalue = 0.0
    for iteration in range(1, max_iter + 1):
        ax = _neighbor_sums(graph, x)
        eigenvalue = float(x @ ax)
        residual = float(np.linalg.norm(ax - eigenvalue * x))
        if residual <= tol:
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
        x = shifted / np.linalg.norm(shifted)
    raise ConvergenceError(
        f"eigenvector centrality did not reach tol={tol} after {max_iter} "
        f"iterations (last residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


def pagerank(
    graph: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = 1.0,
) -> ScoreVector:
    """Random-walk influence scores by fixed-point iteration.

    Updates x(i) <- (1-d)/n_active + d * sum over neighbors j of
    x(j)/degree(j), with d the damping, starting from the uniform
    distribution, until the L1 change drops to tol. The default d = 1.0 is
    the undamped update, which diverges on bipartite structure (period-2
    oscillation); pass d < 1 to damp it. Isolated nodes are pinned to score
    0 and excluded from the uniform start and the damping redistribution.
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
    for iteration in range(1, max_iter + 1):
        spread = _neighbor_sums(graph, x / safe_degrees)
        x_next = np.where(active, (1.0 - damping) / n_active + damping * spread, 0.0)
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta <= tol:
            return ScoreVector(
                "pagerank", x, metadata={"iterations": iteration, "delta": delta}
            )
    raise ConvergenceError(
        f"pagerank did not reach tol={tol} after {max_iter} iterations "
        f"(last L1 change {delta:.3e}); bipartite graphs oscillate at "
        f"damping=1.0, retry with damping < 1",
        residual=delta,
        iterations=max_iter,
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
    one row at a time. Infinite entries, including the diagonal, contribute
    nothing.
    """
    degrees = graph.degrees.astype(np.float64)
    gravity = np.empty(graph.n, dtype=np.float64)
    for i in range(graph.n):
        row = ed.effective_distances(graph, i)
        gravity[i] = gravity_sum(degrees, row, np.isfinite(row))
    return ScoreVector("effg", degrees * gravity)


def compute_scores(
    graph: Graph,
    measures: Sequence[str],
    damping: float = 1.0,
) -> Mapping[str, ScoreVector]:
    """Compute several measures at once, in the order requested.

    ``effg`` streams effective-distance rows, so no n x n matrix is built.
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
