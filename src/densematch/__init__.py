"""Dense-matching extraction on graphs with independence number at most 2.

A desk-scale library around one randomised procedure - partition the
vertices into pairs, condition on many pairs being edges, pick a matching
uniformly from those edges - together with the exact combinatorial oracles
needed to verify its probability laws and score its output.

The names below are the documented entry points; everything else is
imported from its submodule.
"""

from .extractor import derive_params, extract_best, extract_once, optimal_slack
from .generators import (c5_blowup_complement, complement_of_random_triangle_free,
                         complete_graph, two_cliques)
from .graphs import Graph, Matching, is_alpha_at_most_2, read_edge_list, write_edge_list
from .harness import ExperimentConfig, build_family, run_experiment
from .oracles import (clique_bound_audit, clique_number, connected_matching_number,
                      count_bad_quadruples, matching_from_clique,
                      min_nonadjacent_matching, nonadjacent_pairs)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "Graph", "Matching", "build_family", "c5_blowup_complement",
    "clique_bound_audit", "clique_number", "complement_of_random_triangle_free",
    "complete_graph", "connected_matching_number", "count_bad_quadruples",
    "derive_params", "extract_best", "extract_once", "is_alpha_at_most_2",
    "matching_from_clique", "min_nonadjacent_matching", "nonadjacent_pairs",
    "optimal_slack", "read_edge_list", "run_experiment", "two_cliques", "write_edge_list",
]
