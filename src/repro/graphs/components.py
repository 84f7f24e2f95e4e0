"""Connected components and spanning forests in hook-and-compress style.

The Tarjan–Vishkin bridge algorithm and the hybrid algorithm both need "a
GPU-optimized connected components algorithm … which constructs a spanning
tree as a byproduct" (paper §4.1, citing Jaiganesh & Burtscher's ECL-CC).
This module provides the equivalent substitute (docs/architecture.md,
"Preprocessing on the host", says what its worklist charges): a
Borůvka-flavoured hook-and-compress procedure that runs in ``O(log n)``
bulk-synchronous rounds, emits component labels, and records which edges
performed successful hooks — exactly a spanning forest.

Also provided: plain label-propagation connected components (used where no
tree is needed) and largest-connected-component extraction (used to
preprocess every bridge dataset, as the paper does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError
from .edgelist import EdgeList


def _compress_labels(labels: np.ndarray, ctx: ExecutionContext, name: str) -> np.ndarray:
    """Pointer-jump ``labels`` until every node points directly at a root."""
    rounds = 0
    n = labels.size
    while True:
        parent = labels[labels]
        changed = parent != labels
        ctx.kernel(
            name,
            threads=n,
            ops=2.0 * n,
            bytes_read=2.0 * n * 8,
            bytes_written=1.0 * n * 8,
            launches=1,
            random_access=True,
        )
        if not changed.any():
            return labels
        labels = parent
        rounds += 1
        if rounds > 2 * int(np.ceil(np.log2(max(n, 2)))) + 4:  # pragma: no cover
            raise InvalidGraphError("label compression failed to converge")


def _hook_and_compress(edges: EdgeList, ctx: ExecutionContext, prefix: str,
                       hook: Callable[..., None]) -> np.ndarray:
    """The round loop shared by the two hook-and-compress procedures.

    Every round gathers the endpoint labels ``lu``/``lv`` of the worklist,
    finds the positions ``cross`` whose edge still joins two components, lets
    ``hook(labels, lu, lv, cross, worklist)`` merge components across them
    (``worklist`` holds the crossing edges' indices, ascending; the hook books
    its own kernel) and compresses the labels, until no edge crosses.  An
    edge inside one component never crosses again, so the endpoints are
    compacted to the crossing edges each round (ECL-CC's worklist): the host
    gathers exactly the edges the ``*_gather_labels`` kernel is charged for.
    """
    n = edges.num_nodes
    labels = np.arange(n, dtype=np.int64)
    u, v, worklist = edges.u, edges.v, None
    lu, lv = u, v  # round 1: every node is its own label, nothing to gather
    rounds = 0
    while u.size:
        ctx.kernel(
            f"{prefix}_gather_labels",
            threads=u.size,
            ops=2.0 * u.size,
            bytes_read=4.0 * u.size * 8,
            bytes_written=float(u.size),
            launches=1,
            random_access=True,
        )
        cross = np.flatnonzero(lu != lv)
        if cross.size == 0:
            break
        worklist = cross if worklist is None else worklist.take(cross)
        if cross.size < u.size:
            u, v = u.take(cross), v.take(cross)
        hook(labels, lu, lv, cross, worklist)
        labels = _compress_labels(labels, ctx, f"{prefix}_compress")
        rounds += 1
        if rounds > 2 * int(np.ceil(np.log2(max(n, 2)))) + 8:  # pragma: no cover
            raise InvalidGraphError("hook-and-compress failed to converge")
        lu, lv = labels.take(u), labels.take(v)
    return labels


def connected_components(edges: EdgeList,
                         *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Component label of every node (labels are component-minimum node ids).

    Hook-and-compress: repeatedly hook the larger endpoint label to the
    smaller across every edge, then fully compress, until no edge crosses two
    labels.  ``O(log n)`` rounds on any graph.
    """
    ctx = ensure_context(ctx)

    def hook(labels, lu, lv, cross, worklist):
        np.minimum.at(labels, np.maximum(lu, lv).take(cross), np.minimum(lu, lv).take(cross))
        ctx.kernel(
            "cc_hook",
            threads=cross.size,
            ops=2.0 * cross.size,
            bytes_read=2.0 * cross.size * 8,
            bytes_written=1.0 * cross.size * 8,
            launches=1,
            random_access=True,
        )

    return _hook_and_compress(edges, ctx, "cc", hook)


@dataclass
class SpanningForest:
    """Result of :func:`spanning_forest`.

    Attributes
    ----------
    labels:
        Component label of every node (component-minimum node id).
    tree_edge_mask:
        Boolean mask over the input edge list: true for edges selected into
        the spanning forest.  Exactly ``n - #components`` entries are true.
    num_components:
        Number of connected components found.
    """

    labels: np.ndarray
    tree_edge_mask: np.ndarray
    num_components: int

    @property
    def tree_edges(self) -> np.ndarray:
        """Indices of the selected spanning-forest edges."""
        return np.flatnonzero(self.tree_edge_mask)


def spanning_forest(edges: EdgeList,
                    *, ctx: Optional[ExecutionContext] = None) -> SpanningForest:
    """Connected components with a spanning forest as a byproduct.

    Borůvka-style rounds: every component proposes its minimum-index incident
    cross edge, winners hook larger roots onto smaller roots, labels are
    compressed, and the winning edges are recorded as forest edges.  Because
    each round keys proposals by the larger root, every accepted edge performs
    a genuine merge and the output can never contain a cycle.
    """
    ctx = ensure_context(ctx)
    n, m = edges.num_nodes, edges.num_edges
    tree_edge_mask = np.zeros(m, dtype=bool)

    def hook(labels, lu, lv, cross, worklist):
        # Each "big" root picks the smallest-index cross edge incident to it.
        best_edge = np.full(n, m, dtype=np.int64)
        np.minimum.at(best_edge, np.maximum(lu, lv).take(cross), worklist)
        winners = np.flatnonzero(best_edge < m)  # the big roots that hook
        winning_edges = best_edge.take(winners)
        # Recover, for each winning edge, which endpoint root is the small one.
        labels[winners] = np.minimum(labels.take(edges.u.take(winning_edges)),
                                     labels.take(edges.v.take(winning_edges)))
        tree_edge_mask[winning_edges] = True
        ctx.kernel(
            "sf_hook",
            threads=cross.size,
            ops=4.0 * cross.size,
            bytes_read=4.0 * cross.size * 8,
            bytes_written=2.0 * winners.size * 8,
            launches=2,
            random_access=True,
        )

    labels = _hook_and_compress(edges, ctx, "sf", hook)
    # Labels are fully compressed: the roots are the nodes labelled themselves.
    num_components = int(np.count_nonzero(labels == np.arange(n)))
    expected_tree_edges = n - num_components
    if int(tree_edge_mask.sum()) != expected_tree_edges:  # pragma: no cover - invariant
        raise InvalidGraphError(
            "spanning forest invariant violated: "
            f"{int(tree_edge_mask.sum())} tree edges for {num_components} components"
        )
    return SpanningForest(labels, tree_edge_mask, num_components)


def largest_connected_component(edges: EdgeList,
                                *, ctx: Optional[ExecutionContext] = None
                                ) -> Tuple[EdgeList, np.ndarray]:
    """Extract the largest connected component (paper §4.2 preprocessing).

    Returns the induced subgraph with densely renumbered nodes, plus the array
    of original node ids.  Isolated nodes count as size-1 components.
    """
    ctx = ensure_context(ctx)
    labels = connected_components(edges, ctx=ctx)
    if labels.size == 0:
        return edges.copy(), np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(labels, return_counts=True)
    biggest = uniq[int(np.argmax(counts))]
    mask = labels == biggest
    sub, old_ids = edges.subgraph(mask)
    return sub, old_ids


def count_components(edges: EdgeList,
                     *, ctx: Optional[ExecutionContext] = None) -> int:
    """Number of connected components of the graph."""
    labels = connected_components(edges, ctx=ctx)
    if labels.size == 0:
        return 0
    return int(np.unique(labels).size)


def is_connected(edges: EdgeList, *, ctx: Optional[ExecutionContext] = None) -> bool:
    """True when the graph has at most one connected component."""
    return count_components(edges, ctx=ctx) <= 1
