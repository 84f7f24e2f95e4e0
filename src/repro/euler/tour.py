"""Euler tour construction and materialization as an array (paper §2.1–2.2).

Given the DCEL of a tree, the successor of half-edge ``e`` along the Euler
tour is ``succ(e) = next(twin(e))`` — after traversing ``e = (x, y)`` and
arriving at ``y``... conceptually, one looks back along ``twin(e) = (y, x)``
and departs along the next half-edge leaving ``y``.  The resulting list is
cyclic; it is cut at an arbitrary half-edge leaving the chosen root, which is
also how an unrooted tree gets its root.

Following the paper's key optimization, list ranking is called exactly
**once**, to turn the linked list into an array of half-edges in tour order;
every subsequent node statistic is then an array scan (see
:mod:`repro.euler.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ..boundary import parent_ids
from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError, NotATreeError
from ..graphs.edgelist import EdgeList
from ..graphs.trees import NO_PARENT, parents_to_edgelist, tree_root
from ..primitives import list_rank, order_from_ranks
from ..primitives.listrank import charge_order_from_ranks
from .dcel import DCEL, build_dcel


@dataclass
class EulerTour:
    """An Euler tour of a rooted tree, materialized as an array.

    Half-edge ids refer to the DCEL numbering (half-edge ``2i``/``2i+1`` are
    the two directions of undirected tree edge ``i``).

    Attributes
    ----------
    dcel:
        The underlying half-edge structure.
    root:
        The root node the cyclic tour was cut at.
    head:
        The first half-edge of the tour (leaves the root).
    succ:
        Successor half-edge along the tour; the last half-edge has ``-1``.
    rank:
        Position of each half-edge in the tour (0-based).
    """

    dcel: DCEL
    root: int
    head: int
    succ: np.ndarray
    rank: np.ndarray

    @cached_property
    def tour(self) -> np.ndarray:
        """Inverse of ``rank`` (``tour[p]`` is the half-edge at ``p``), built on first read."""
        return order_from_ranks(self.rank)

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return self.dcel.n

    @property
    def length(self) -> int:
        """Tour length, ``2(n-1)``."""
        return int(self.rank.size)

    @property
    def src(self) -> np.ndarray:
        """Source node of each half-edge (DCEL order)."""
        return self.dcel.src

    @property
    def dst(self) -> np.ndarray:
        """Target node of each half-edge (DCEL order)."""
        return self.dcel.dst

    @property
    def twin(self) -> np.ndarray:
        """Twin half-edge of each half-edge (DCEL order)."""
        return self.dcel.twin

    def nodes_in_tour_order(self) -> np.ndarray:
        """Nodes visited by the tour: destination of every tour edge, prefixed by the root."""
        return np.concatenate(([self.root], self.dst[self.tour]))


def build_euler_tour_from_dcel(dcel: DCEL, root: int = 0,
                               *, list_rank_method: str = "wei-jaja",
                               ctx: Optional[ExecutionContext] = None) -> EulerTour:
    """Cut and rank the Euler tour of a tree whose DCEL is already built."""
    ctx = ensure_context(ctx)
    n = dcel.n
    if not (0 <= root < n):
        raise InvalidGraphError(f"root {root} out of range for tree of {n} nodes")
    h = dcel.num_halfedges
    if h == 0:  # single-node tree: an empty tour
        empty = np.empty(0, dtype=np.int64)
        return EulerTour(dcel=dcel, root=root, head=-1, succ=empty, rank=empty)

    # A tree with more than one node has no isolated vertex; an isolated
    # vertex here means the edge set (of the right cardinality n - 1) is
    # disconnected, in which case the remaining edges necessarily contain a
    # cycle and the "tour" would silently skip part of the node set.
    if n > 1 and bool(np.any(dcel.first < 0)):
        raise NotATreeError("input has isolated nodes; it is not a connected tree")

    # succ(e) = next(twin(e)); one gather-compose kernel.
    succ = dcel.next[dcel.twin]
    ctx.kernel(
        "euler_succ",
        threads=h,
        ops=2.0 * h,
        bytes_read=2.0 * h * 8,
        bytes_written=1.0 * h * 8,
        launches=1,
        random_access=True,
    )

    head = int(dcel.first[root])
    if head < 0:
        raise NotATreeError(f"root {root} has no incident edges; tree is disconnected")

    # Cut the cycle: the unique predecessor of the head becomes the tail.
    # `succ` is the gather's own fresh array, so it is cut in place.
    preds = np.flatnonzero(succ == head)
    if preds.size != 1:
        raise NotATreeError("Euler tour is not a single cycle; input is not a tree")
    succ[preds[0]] = -1
    ctx.kernel(
        "euler_cut_cycle",
        threads=h,
        ops=float(h),
        bytes_read=1.0 * h * 8,
        bytes_written=8.0,
        launches=1,
    )

    try:
        rank = list_rank(succ, head, method=list_rank_method, ctx=ctx)
    except InvalidGraphError as exc:
        raise NotATreeError(
            "Euler tour does not visit every half-edge; input is not a connected tree"
        ) from exc
    charge_order_from_ranks(ctx, h)
    return EulerTour(dcel=dcel, root=root, head=head, succ=succ, rank=rank)


def build_euler_tour(tree_edges: EdgeList, root: int = 0,
                     *, list_rank_method: str = "wei-jaja",
                     ctx: Optional[ExecutionContext] = None) -> EulerTour:
    """Build an Euler tour from an unordered undirected tree edge list.

    This is the full pipeline of paper §2.1–2.2: DCEL construction (sort),
    successor composition, cycle cut at ``root``, and a single list ranking.
    """
    ctx = ensure_context(ctx)
    dcel = build_dcel(tree_edges, ctx=ctx)
    return build_euler_tour_from_dcel(dcel, root, list_rank_method=list_rank_method, ctx=ctx)


def build_euler_tour_from_parents(parents: np.ndarray,
                                  *, list_rank_method: str = "wei-jaja",
                                  ctx: Optional[ExecutionContext] = None) -> EulerTour:
    """Build an Euler tour of a tree given as a parent array, rooted at its root."""
    parents = parent_ids(parents)
    root = tree_root(parents)
    if parents.size == 1:
        if parents[0] != NO_PARENT:
            raise NotATreeError("single-node tree must have parent -1")
        edges = EdgeList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1)
        return build_euler_tour(edges, 0, list_rank_method=list_rank_method, ctx=ctx)
    edges = parents_to_edgelist(parents)
    return build_euler_tour(edges, root, list_rank_method=list_rank_method, ctx=ctx)
