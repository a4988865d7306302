import subprocess
import sys
from importlib import import_module

import pytest

import effgravity
from helpers import interpreter_env

# Every name the package exports, with the module it also comes from there.
# MEASURES, TAU_CONVENTIONS and ConvergenceError are defined in the package
# itself, so that the command line can read them without loading a layer.
EXPORTS = {
    "MEASURES": "centrality",
    "TAU_CONVENTIONS": "evaluation",
    "UNREACHABLE": "graph",
    "ConvergenceError": "centrality",
    "Graph": "graph",
    "ParseError": "graph",
    "ParseReport": "graph",
    "RankComparison": "evaluation",
    "SIConfig": "epidemics",
    "ScoreVector": "centrality",
    "TopologyStats": "graph",
    "betweenness_centrality": "centrality",
    "closeness_centrality": "centrality",
    "compute_scores": "centrality",
    "degree_centrality": "centrality",
    "effective_distance_matrix": "effective_distance",
    "effg_centrality": "centrality",
    "eigenvector_centrality": "centrality",
    "gravity_centrality": "centrality",
    "hop_distances": "graph",
    "kendall_tau": "evaluation",
    "load_edge_list": "graph",
    "pagerank": "centrality",
    "parse_edge_list": "graph",
    "rank": "centrality",
    "rank_vs_spread": "evaluation",
    "simulate_si": "epidemics",
    "spreading_power": "epidemics",
    "spreading_powers": "epidemics",
    "top_k_infection_curves": "epidemics",
    "top_k_overlap": "evaluation",
    "topology_stats": "graph",
}


def test_package_exports_the_same_names():
    assert sorted(effgravity.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(effgravity))


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exported_name_is_its_modules_object(name):
    module = import_module(f"effgravity.{EXPORTS[name]}")
    assert getattr(effgravity, name) is getattr(module, name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from effgravity import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    for name, value in namespace.items():
        if name != "__builtins__":
            assert value is getattr(import_module(f"effgravity.{EXPORTS[name]}"), name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'closeness'"):
        effgravity.closeness
    assert not hasattr(effgravity, "cli_main")


def test_layers_load_on_first_use():
    check = """
import sys
import effgravity
def loaded():
    return sorted(name for name in sys.modules if name.startswith("effgravity"))
print(loaded())
effgravity.Graph
print(loaded())
from effgravity import SIConfig
print(loaded())
print(effgravity.evaluation.TAU_CONVENTIONS is effgravity.TAU_CONVENTIONS)
"""
    result = subprocess.run(
        [sys.executable, "-c", check], env=interpreter_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['effgravity']",
        "['effgravity', 'effgravity.graph']",
        # the SI layer needs only the graph layer
        str(["effgravity", "effgravity.epidemics", "effgravity.graph"]),
        "True",
    ]
