"""Graph substrate: representations, generators, traversal and characterization."""

from .bfs import BFSResult, bfs_cpu, bfs_gpu
from .components import (
    SpanningForest,
    connected_components,
    count_components,
    is_connected,
    largest_connected_component,
    spanning_forest,
)
from .csr import CSRGraph
from .edgelist import EdgeList
from .properties import GraphStats, characterize, degree_statistics, is_tree, pseudo_diameter
from .trees import (
    NO_PARENT,
    brute_force_lca,
    depths_from_parents,
    generate_random_queries,
    parents_to_edgelist,
    random_relabel_tree,
    relabel_tree,
    tree_root,
    validate_parents,
)
from . import generators

__all__ = [
    "EdgeList",
    "CSRGraph",
    "BFSResult",
    "bfs_gpu",
    "bfs_cpu",
    "SpanningForest",
    "connected_components",
    "spanning_forest",
    "largest_connected_component",
    "count_components",
    "is_connected",
    "GraphStats",
    "characterize",
    "pseudo_diameter",
    "degree_statistics",
    "is_tree",
    "NO_PARENT",
    "validate_parents",
    "tree_root",
    "parents_to_edgelist",
    "depths_from_parents",
    "relabel_tree",
    "random_relabel_tree",
    "brute_force_lca",
    "generate_random_queries",
    "generators",
]
