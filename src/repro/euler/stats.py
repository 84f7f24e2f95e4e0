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
from ..primitives import charge_scan, inclusive_scan
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


def compute_tree_stats(tour: EulerTour,
                       *, ctx: Optional[ExecutionContext] = None) -> TreeStats:
    """Derive parent / depth / preorder / subtree size from an Euler tour.

    Every non-root node is the target of exactly one down half-edge, so each
    per-node array is written once, the root last.
    """
    ctx = ensure_context(ctx)
    n = tour.n
    root = tour.root
    parent = np.empty(n, dtype=np.int64)
    depth = np.empty(n, dtype=np.int64)
    preorder = np.empty(n, dtype=np.int64)
    subtree_size = np.empty(n, dtype=np.int64)

    h = tour.length
    if h:
        # Twins are half-edges 2i and 2i + 1 (the DCEL's layout): row i holds
        # tree edge i's down position (the smaller) and its twin's.
        pos = tour.rank.reshape(-1, 2)
        first_down = pos[:, 0] < pos[:, 1]
        down = np.minimum(pos[:, 0], pos[:, 1])
        up = np.maximum(pos[:, 0], pos[:, 1])
        ctx.kernel(
            "euler_classify_direction",
            threads=h,
            ops=2.0 * h,
            bytes_read=2.0 * h * 8,
            bytes_written=float(h),
            launches=1,
            random_access=True,
        )

        # Weight 1 at the down positions: the sums are preorder - 1.
        seen = np.zeros(h, dtype=np.int64)
        seen[down] = 1
        ctx.kernel(
            "euler_gather_tour_order",
            threads=h,
            ops=float(h),
            bytes_read=2.0 * h * 8,
            bytes_written=float(h),
            launches=1,
            random_access=True,
        )
        inclusive_scan(seen, out=seen, ctx=ctx)
        # The ±1 depth scan, charged: at p it is 2·seen[p] − p − 1, read below.
        charge_scan(ctx, h, seen.dtype.itemsize, "inclusive_scan")

        # Scatter per down half-edge: edge i joins u = src[2i] and v = dst[2i],
        # and its down half-edge enters v iff 2i comes first.
        u, v = tour.src[0::2], tour.dst[0::2]
        child = np.where(first_down, v, u)
        parent[child] = np.where(first_down, u, v)
        before = seen[down]
        preorder[child] = before + 1
        depth[child] = 2 * before - down - 1
        subtree_size[child] = (up - down + 1) >> 1
        ctx.kernel(
            "euler_scatter_node_stats",
            threads=int(down.size),
            ops=6.0 * down.size,
            bytes_read=float(down.size) * 48.0,
            bytes_written=float(down.size) * 32.0,
            launches=2,
            random_access=True,
        )
    parent[root] = NO_PARENT
    depth[root] = 0
    preorder[root] = 1
    subtree_size[root] = n
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
