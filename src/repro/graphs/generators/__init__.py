"""Synthetic dataset generators (the paper's §3.2 trees and §4.2 graph stand-ins)."""

from .kronecker import GRAPH500_PROBS, kron_g500, rmat_graph
from .random_trees import (
    INFINITE_GRASP,
    barabasi_albert_tree,
    grasp_for_target_depth,
    grasp_tree,
    random_attachment_tree,
)
from .road import (
    cycle_graph,
    grid_graph,
    path_graph,
    road_graph,
    road_graph_with_target_size,
)
from .social import (
    citation_graph,
    collaboration_graph,
    preferential_attachment_graph,
    social_graph,
    web_graph,
)

__all__ = [
    "random_attachment_tree",
    "grasp_tree",
    "barabasi_albert_tree",
    "grasp_for_target_depth",
    "INFINITE_GRASP",
    "rmat_graph",
    "kron_g500",
    "GRAPH500_PROBS",
    "grid_graph",
    "road_graph",
    "road_graph_with_target_size",
    "path_graph",
    "cycle_graph",
    "preferential_attachment_graph",
    "web_graph",
    "citation_graph",
    "social_graph",
    "collaboration_graph",
]
