"""Influential-node ranking for complex networks.

Scores nodes of an undirected simple graph with a gravity-style measure
over random-walk effective distances, alongside six classic centralities,
and evaluates rankings with susceptible-infected spreading simulations,
Kendall-tau correlation and top-k overlap.

Each layer is imported on first use of one of its names, so a command
that only reads graph statistics never loads the measures or the SI layer.
"""

__version__ = "0.1.0"

# The few names the command line needs before it knows which layers a
# command runs; centrality and evaluation re-export them.
MEASURES = ("dc", "bc", "cc", "ec", "pagerank", "gm", "effg")
TAU_CONVENTIONS = ("standard", "ordered-pairs")


class ConvergenceError(RuntimeError):
    """An iterative measure failed to reach its tolerance; the message gives
    the iteration cap and the last residual."""


# the public names each submodule defines, imported on first access
_EXPORTS = {
    "centrality": (
        "ScoreVector",
        "betweenness_centrality",
        "closeness_centrality",
        "compute_scores",
        "degree_centrality",
        "effg_centrality",
        "eigenvector_centrality",
        "gravity_centrality",
        "pagerank",
        "rank",
    ),
    "effective_distance": ("effective_distance_matrix",),
    "epidemics": (
        "SIConfig",
        "simulate_si",
        "spreading_power",
        "spreading_powers",
        "top_k_infection_curves",
    ),
    "evaluation": (
        "RankComparison",
        "kendall_tau",
        "rank_vs_spread",
        "top_k_overlap",
    ),
    "graph": (
        "UNREACHABLE",
        "Graph",
        "ParseError",
        "ParseReport",
        "TopologyStats",
        "hop_distances",
        "load_edge_list",
        "parse_edge_list",
        "topology_stats",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["MEASURES", "TAU_CONVENTIONS", "ConvergenceError", *_HOMES])


def __getattr__(name: str):
    """Import the layer that defines ``name``, or is ``name``, and keep the
    binding, as an eager ``from .module import name`` would have."""
    from importlib import import_module

    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
