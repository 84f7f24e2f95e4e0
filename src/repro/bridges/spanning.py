"""Spanning-tree helpers shared by the parallel bridge-finding algorithms.

Both the Tarjan–Vishkin and the hybrid algorithm start from the *unrooted*
spanning tree produced by the connectivity algorithm
(:func:`repro.graphs.components.spanning_forest`, the ECL-CC substitute) and
root it with the Euler tour technique; the CK algorithm instead takes the
already-rooted BFS tree.  This module contains the small amount of glue those
pipelines share: extracting the tree edge list, finding the child endpoint of
every tree edge, and splitting off the non-tree edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boundary import int_scalar, parent_ids
from ..errors import InvalidGraphError
from ..graphs.edgelist import EdgeList

__all__ = ["TreeEdgeView", "checked_root", "split_tree_edges", "child_endpoints"]


def checked_root(root: object, n: int) -> int:
    """``root`` as a node id in ``[0, n)`` (a graph without nodes keeps 0)."""
    root = int_scalar(root, InvalidGraphError, "root")
    if not 0 <= root < max(n, 1):
        raise InvalidGraphError(f"root {root} out of range for graph of {n} nodes")
    return root


@dataclass
class TreeEdgeView:
    """A spanning tree and the remaining non-tree edges of a graph.

    Attributes
    ----------
    tree_edges:
        Edge list containing only the spanning-tree edges (same node ids as
        the input graph).
    tree_edge_indices:
        For every tree edge, its index in the original edge list.
    nontree_u, nontree_v:
        Endpoints of the non-tree edges.
    nontree_indices:
        Indices of the non-tree edges in the original edge list.
    """

    tree_edges: EdgeList
    tree_edge_indices: np.ndarray
    nontree_u: np.ndarray
    nontree_v: np.ndarray
    nontree_indices: np.ndarray


def split_tree_edges(edges: EdgeList, tree_edge_mask: np.ndarray) -> TreeEdgeView:
    """Split an edge list into spanning-tree edges and non-tree edges."""
    tree_edge_mask = np.asarray(tree_edge_mask, dtype=bool)
    if tree_edge_mask.shape != (edges.num_edges,):
        raise InvalidGraphError("tree_edge_mask must have one entry per edge")
    tree_idx = np.flatnonzero(tree_edge_mask)
    nontree_idx = np.flatnonzero(~tree_edge_mask)
    tree_edges = EdgeList(edges.u[tree_idx], edges.v[tree_idx], edges.num_nodes)
    return TreeEdgeView(
        tree_edges=tree_edges,
        tree_edge_indices=tree_idx,
        nontree_u=edges.u[nontree_idx],
        nontree_v=edges.v[nontree_idx],
        nontree_indices=nontree_idx,
    )


def child_endpoints(view: TreeEdgeView, parents: np.ndarray) -> np.ndarray:
    """For every tree edge, the endpoint that is the *child* under ``parents``.

    Needed to translate per-node bridge verdicts ("the edge from ``c`` to its
    parent is a bridge") back to per-edge verdicts on the original edge list.
    """
    parents = parent_ids(parents)
    u = view.tree_edges.u
    v = view.tree_edges.v
    u_is_child = parents[u] == v
    v_is_child = parents[v] == u
    if not np.all(u_is_child | v_is_child):
        raise InvalidGraphError(
            "parent array does not orient every tree edge; spanning tree and rooting disagree"
        )
    return np.where(u_is_child, u, v)
