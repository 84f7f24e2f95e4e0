"""Tarjan–Vishkin bridge finding (paper §4.1), the Euler-tour-based GPU algorithm.

Three phases, mirroring the breakdown of the paper's Figure 11:

1. **Spanning tree** — the connectivity algorithm (hook-and-compress, the
   ECL-CC substitute) produces an unrooted spanning tree as a byproduct.
2. **Euler tour** — the tree is rooted with the Euler tour technique, giving
   preorder numbers and subtree sizes; a segmented reduction then computes,
   for every node, the minimum and maximum preorder number among its non-tree
   neighbours.
3. **Detect bridges** — the per-node extremes are aggregated over subtrees
   (contiguous preorder intervals, answered with a range-min/max structure)
   into the classical ``low``/``high`` functions; the tree edge above ``v`` is
   a bridge iff neither function escapes ``v``'s preorder interval, i.e. no
   non-tree edge leaves the subtree of ``v``.

Unlike the original DFS-based criterion, this works for *any* spanning tree
(Tarjan's observation), which is what removes depth-first search — and with
it the sequential bottleneck — from the pipeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError
from ..euler import build_euler_tour, compute_tree_stats
from ..graphs.components import spanning_forest
from ..graphs.edgelist import EdgeList
from ..primitives import build_rmq, segreduce_by_key
from ..primitives.listrank import canonical_rank_method
from ..primitives.rmq import rmq_backend_class
from .result import BridgeResult
from .spanning import checked_root, child_endpoints, split_tree_edges

__all__ = ["find_bridges_tarjan_vishkin"]


def find_bridges_tarjan_vishkin(edges: EdgeList, *, root: int = 0,
                                rmq_backend: str = "segment-tree",
                                list_rank_method: str = "wei-jaja",
                                ctx: Optional[ExecutionContext] = None) -> BridgeResult:
    """Find all bridges of a connected graph with the Tarjan–Vishkin algorithm.

    Parameters
    ----------
    edges:
        Connected undirected graph (run
        :func:`repro.graphs.largest_connected_component` first if unsure).
    root:
        Node at which the spanning tree is rooted.
    rmq_backend:
        ``"segment-tree"`` (paper's choice) or ``"sparse-table"`` for the
        subtree low/high aggregation.
    list_rank_method:
        List-ranking algorithm used by the Euler tour.
    ctx:
        Execution context; phases are tagged ``"Spanning tree"``,
        ``"Euler tour"`` and ``"Detect bridges"``.
    """
    ctx = ensure_context(ctx)
    n, m = edges.num_nodes, edges.num_edges
    # Refuse a bad argument before the spanning forest and the tour are built
    # and charged, not after.
    root = checked_root(root, n)
    rmq_backend_class(rmq_backend)
    canonical_rank_method(list_rank_method)
    bridge_mask = np.zeros(m, dtype=bool)
    if n <= 1 or m == 0:
        return BridgeResult(bridge_mask, algorithm="GPU TV", phase_times=dict(ctx.breakdown()))

    # Phase 1: spanning tree from the connectivity algorithm.
    with ctx.phase("Spanning tree"):
        forest = spanning_forest(edges, ctx=ctx)
        if forest.num_components != 1:
            raise InvalidGraphError(
                "Tarjan–Vishkin bridge finding requires a connected graph; "
                f"found {forest.num_components} components"
            )
    view = split_tree_edges(edges, forest.tree_edge_mask)

    # Phase 2: root the tree with the Euler tour; compute per-node non-tree extremes.
    with ctx.phase("Euler tour"):
        tour = build_euler_tour(view.tree_edges, root, list_rank_method=list_rank_method,
                                ctx=ctx)
        stats = compute_tree_stats(tour, ctx=ctx)
        pre = stats.preorder  # 1-based
        size = stats.subtree_size

        # Per-node minimum / maximum preorder among non-tree neighbours.  Each
        # non-tree edge {x, y} contributes pre[y] to x and pre[x] to y (this is
        # the moderngpu segreduce step of the paper).  Both halves are written
        # straight into one buffer; the endpoints are node ids of a validated
        # edge list, so ``mode="clip"`` never clips — it only spares
        # ``np.take`` the buffered copy that ``out=`` otherwise costs.
        k = view.nontree_u.size
        keys = np.empty(2 * k, dtype=np.int64)
        keys[:k] = view.nontree_u
        keys[k:] = view.nontree_v
        vals = np.empty(2 * k, dtype=np.int64)
        np.take(pre, view.nontree_v, out=vals[:k], mode="clip")
        np.take(pre, view.nontree_u, out=vals[k:], mode="clip")
        min_nontree = segreduce_by_key(keys, vals, n, "min",
                                       identity=np.int64(np.iinfo(np.int64).max), ctx=ctx)
        max_nontree = segreduce_by_key(keys, vals, n, "max",
                                       identity=np.int64(0), ctx=ctx)
        # A node with no non-tree neighbour contributes its own preorder number
        # (the classical definition includes preorder(v) in low(v)/high(v)).
        np.minimum(min_nontree, pre, out=min_nontree)
        np.maximum(max_nontree, pre, out=max_nontree)

    # Phase 3: aggregate over subtrees and apply the bridge criterion.
    with ctx.phase("Detect bridges"):
        # Lay the per-node extremes out in preorder positions (0-based) so a
        # subtree becomes a contiguous interval.  One position array and one
        # buffer feed both trees; the rows are scattered one at a time because
        # a single 2-D fancy assignment is several times slower in NumPy.
        order_pos = pre - 1
        by_pos = np.empty((2, n), dtype=np.int64)
        by_pos[0][order_pos] = min_nontree
        by_pos[1][order_pos] = max_nontree
        ctx.kernel(
            "tv_scatter_preorder",
            threads=n,
            ops=2.0 * n,
            bytes_read=3.0 * n * 8,
            bytes_written=2.0 * n * 8,
            launches=1,
            random_access=True,
        )
        rmq_min = build_rmq(by_pos[0], "min", backend=rmq_backend, ctx=ctx)
        rmq_max = build_rmq(by_pos[1], "max", backend=rmq_backend, ctx=ctx)

        # Evaluate low/high only for the nodes that head a tree edge (every
        # non-root node): the subtree of ``c`` is the preorder numbers
        # [first, last], i.e. positions [first - 1, last - 1].
        children = child_endpoints(view, stats.parent)
        first = pre.take(children)
        last = first + size.take(children) - 1
        lo_idx = first - 1
        hi_idx = last - 1
        low = rmq_min.query(lo_idx, hi_idx, ctx=ctx)
        high = rmq_max.query(lo_idx, hi_idx, ctx=ctx)
        bridge_mask[view.tree_edge_indices] = (low >= first) & (high <= last)
        ctx.kernel(
            "tv_bridge_criterion",
            threads=int(children.size),
            ops=6.0 * children.size,
            bytes_read=6.0 * children.size * 8,
            bytes_written=1.0 * children.size,
            launches=1,
            random_access=True,
        )

    return BridgeResult(bridge_mask, algorithm="GPU TV", phase_times=dict(ctx.breakdown()))
