"""The hybrid bridge-finding algorithm proposed at the end of paper §4.3.

The CK marking phase is correct for *any* rooted spanning tree, not just a BFS
tree.  Since BFS is the diameter-sensitive bottleneck of CK, the hybrid swaps
it out: the spanning tree comes from the (diameter-insensitive) connectivity
algorithm, and — because that tree is unrooted — the Euler tour technique is
used to obtain the parents and levels the marking phase needs.

Four phases, matching the Figure 11 breakdown: ``"Spanning tree"``,
``"Euler tour"``, ``"Levels and parents"``, ``"Mark non-bridges"``.

The paper's conclusion, which the benchmarks here reproduce, is that the
hybrid is usually faster than CK but never beats TV: both the hybrid and TV
pay for the spanning tree and the Euler tour, after which TV's remaining
detect phase is cheaper than the hybrid's marking phase.

The hybrid is a *hand-rolled* cost-driven substitution: one phase known to be
expensive is swapped for a cheaper equivalent, decided once, offline.  The
serving subsystem generalizes the idea — see
:class:`repro.service.dispatch.CostModelDispatcher`, which makes the same
kind of substitution per batch, online, by pricing every candidate backend
with the device roofline model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError
from ..euler import build_euler_tour, compute_tree_stats
from ..graphs.components import spanning_forest
from ..graphs.edgelist import EdgeList
from ..primitives.listrank import canonical_rank_method
from .marking import mark_cycle_edges
from .result import BridgeResult
from .spanning import checked_root, child_endpoints, split_tree_edges

__all__ = ["find_bridges_hybrid"]


def find_bridges_hybrid(edges: EdgeList, *, root: int = 0,
                        list_rank_method: str = "wei-jaja",
                        ctx: Optional[ExecutionContext] = None) -> BridgeResult:
    """Find all bridges of a connected graph with the hybrid algorithm.

    Parameters
    ----------
    edges:
        Connected undirected graph.
    root:
        Node at which the spanning tree is rooted.
    list_rank_method:
        List-ranking algorithm used by the Euler tour.
    ctx:
        Execution context; phases are tagged ``"Spanning tree"``,
        ``"Euler tour"``, ``"Levels and parents"`` and ``"Mark non-bridges"``.
    """
    ctx = ensure_context(ctx)
    n, m = edges.num_nodes, edges.num_edges
    root = checked_root(root, n)
    canonical_rank_method(list_rank_method)
    bridge_mask = np.zeros(m, dtype=bool)
    if n <= 1 or m == 0:
        return BridgeResult(bridge_mask, algorithm="GPU Hybrid",
                            phase_times=dict(ctx.breakdown()))

    with ctx.phase("Spanning tree"):
        forest = spanning_forest(edges, ctx=ctx)
        if forest.num_components != 1:
            raise InvalidGraphError(
                "hybrid bridge finding requires a connected graph; "
                f"found {forest.num_components} components"
            )
    view = split_tree_edges(edges, forest.tree_edge_mask)

    with ctx.phase("Euler tour"):
        tour = build_euler_tour(view.tree_edges, root, list_rank_method=list_rank_method,
                                ctx=ctx)

    with ctx.phase("Levels and parents"):
        stats = compute_tree_stats(tour, ctx=ctx)

    with ctx.phase("Mark non-bridges"):
        marked = mark_cycle_edges(stats.parent, stats.depth,
                                  view.nontree_u, view.nontree_v, ctx=ctx)
        children = child_endpoints(view, stats.parent)
        bridge_mask[view.tree_edge_indices] = ~marked[children]
        ctx.kernel(
            "hybrid_collect_bridges",
            threads=int(children.size),
            ops=2.0 * children.size,
            bytes_read=3.0 * children.size * 8,
            bytes_written=1.0 * children.size,
            launches=1,
            random_access=True,
        )

    return BridgeResult(bridge_mask, algorithm="GPU Hybrid",
                        phase_times=dict(ctx.breakdown()))
