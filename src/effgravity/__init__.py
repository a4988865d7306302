"""Influential-node ranking for complex networks.

Scores nodes of an undirected simple graph with a gravity-style measure
over random-walk effective distances, alongside six classic centralities,
and evaluates rankings with susceptible-infected spreading simulations,
Kendall-tau correlation and top-k overlap.
"""

__version__ = "0.1.0"

from .centrality import (
    MEASURES,
    ConvergenceError,
    Ranking,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    compute_scores,
    degree_centrality,
    effg_centrality,
    eigenvector_centrality,
    gravity_centrality,
    pagerank,
    rank,
)
from .effective_distance import (
    effective_distance_matrix,
    effective_distances,
    write_matrix_csv,
)
from .epidemics import (
    SIConfig,
    SIOutcome,
    simulate_si,
    spreading_power,
    spreading_powers,
    top_k_infection_curves,
)
from .evaluation import (
    TAU_CONVENTIONS,
    OverlapReport,
    RankComparison,
    clamp_betas,
    kendall_tau,
    rank_vs_spread,
    tau_vs_beta_sweep,
    top_k_overlap,
)
from .graph import (
    UNREACHABLE,
    Graph,
    ParseError,
    ParseReport,
    TopologyStats,
    hop_distances,
    load_edge_list,
    parse_edge_list,
    topology_stats,
)

__all__ = [
    "MEASURES",
    "TAU_CONVENTIONS",
    "UNREACHABLE",
    "ConvergenceError",
    "Graph",
    "OverlapReport",
    "ParseError",
    "ParseReport",
    "RankComparison",
    "Ranking",
    "SIConfig",
    "SIOutcome",
    "ScoreVector",
    "TopologyStats",
    "betweenness_centrality",
    "clamp_betas",
    "closeness_centrality",
    "compute_scores",
    "degree_centrality",
    "effective_distance_matrix",
    "effective_distances",
    "effg_centrality",
    "eigenvector_centrality",
    "gravity_centrality",
    "hop_distances",
    "kendall_tau",
    "load_edge_list",
    "pagerank",
    "parse_edge_list",
    "rank",
    "rank_vs_spread",
    "simulate_si",
    "spreading_power",
    "spreading_powers",
    "tau_vs_beta_sweep",
    "top_k_infection_curves",
    "top_k_overlap",
    "topology_stats",
    "write_matrix_csv",
]
