"""Node statistics from an Euler tour: parent, depth, preorder, subtree size.

Once the tour is an array, each statistic is one scan plus one scatter
(paper §2, §2.2):

* assigning weight 1 to *down* half-edges (an edge is down iff it appears
  before its twin) and 0 to *up* ones, the prefix sums are the preorder
  numbers;
* with weights +1/-1 instead, the prefix sums are the node depths;
* a node's parent is the source of its down half-edge;
* a subtree corresponds to the contiguous tour interval between a node's down
  half-edge and that edge's twin, so the subtree size is half the interval
  length (plus the node itself).

These are exactly the quantities the Inlabel LCA preprocessing and the
Tarjan–Vishkin bridge algorithm consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..graphs.trees import NO_PARENT
from ..primitives import inclusive_scan
from .tour import EulerTour, build_euler_tour_from_parents


@dataclass
class TreeStats:
    """Per-node statistics of a rooted tree.

    Attributes
    ----------
    root:
        The root node.
    parent:
        Parent of every node (``-1`` for the root).
    depth:
        Distance from the root.
    preorder:
        1-based preorder (DFS visiting) number, following the tour order.
        The subtree of ``v`` occupies preorder interval
        ``[preorder[v], preorder[v] + subtree_size[v] - 1]``.
    subtree_size:
        Number of nodes in the subtree rooted at each node.
    """

    root: int
    parent: np.ndarray
    depth: np.ndarray
    preorder: np.ndarray
    subtree_size: np.ndarray

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.parent.size)

    def preorder_interval(self) -> tuple:
        """0-based, inclusive subtree intervals ``(start, end)`` in preorder space.

        ``start[v] = preorder[v] - 1`` and ``end[v] = start[v] + size[v] - 1``;
        useful for range queries over arrays indexed by ``preorder - 1``.
        """
        start = self.preorder - 1
        end = start + self.subtree_size - 1
        return start, end


def compute_tree_stats(tour: EulerTour,
                       *, ctx: Optional[ExecutionContext] = None) -> TreeStats:
    """Derive parent / depth / preorder / subtree size from an Euler tour."""
    ctx = ensure_context(ctx)
    n = tour.n
    root = tour.root
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    preorder = np.ones(n, dtype=np.int64)
    subtree_size = np.full(n, 1, dtype=np.int64)

    h = tour.length
    if h == 0:
        subtree_size[root] = n
        return TreeStats(root=root, parent=parent, depth=depth,
                         preorder=preorder, subtree_size=subtree_size)

    rank = tour.rank
    twin_rank = rank[tour.twin]
    is_down = rank < twin_rank
    ctx.kernel(
        "euler_classify_direction",
        threads=h,
        ops=2.0 * h,
        bytes_read=2.0 * h * 8,
        bytes_written=float(h),
        launches=1,
        random_access=True,
    )

    # Scans over the tour-ordered arrays.
    down_in_order = is_down[tour.tour]
    ctx.kernel(
        "euler_gather_tour_order",
        threads=h,
        ops=float(h),
        bytes_read=2.0 * h * 8,
        bytes_written=float(h),
        launches=1,
        random_access=True,
    )
    weight = down_in_order.astype(np.int64)  # 1 on a down half-edge, 0 on an up one
    preorder_scan = inclusive_scan(weight, ctx=ctx)
    weight <<= 1  # the same buffer, now +1 / -1
    weight -= 1
    depth_scan = inclusive_scan(weight, ctx=ctx)
    del weight  # the scatter below is this function's memory peak

    # Scatter per down half-edge into per-node arrays.
    down_edges = np.flatnonzero(is_down)
    pos = rank[down_edges]
    target = tour.dst[down_edges]
    parent[target] = tour.src[down_edges]
    depth[target] = depth_scan[pos]
    preorder[target] = preorder_scan[pos] + 1
    subtree_size[target] = (twin_rank[down_edges] - pos + 1) // 2
    # Root values.
    parent[root] = NO_PARENT
    depth[root] = 0
    preorder[root] = 1
    subtree_size[root] = n
    ctx.kernel(
        "euler_scatter_node_stats",
        threads=int(down_edges.size),
        ops=6.0 * down_edges.size,
        bytes_read=float(down_edges.size) * 48.0,
        bytes_written=float(down_edges.size) * 32.0,
        launches=2,
        random_access=True,
    )
    return TreeStats(root=root, parent=parent, depth=depth,
                     preorder=preorder, subtree_size=subtree_size)


def tree_statistics_from_parents(parents: np.ndarray,
                                 *, list_rank_method: str = "wei-jaja",
                                 ctx: Optional[ExecutionContext] = None) -> TreeStats:
    """Full pipeline: parent array → Euler tour → node statistics.

    The returned parents are recomputed from the tour (they equal the input
    up to the validity of the input parent array); this is the path the GPU
    algorithms use so all their inputs flow through the tour machinery.
    """
    tour = build_euler_tour_from_parents(parents, list_rank_method=list_rank_method, ctx=ctx)
    return compute_tree_stats(tour, ctx=ctx)
