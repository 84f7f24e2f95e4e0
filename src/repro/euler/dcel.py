"""DCEL-like intermediate representation of a tree (paper §2.1).

The Euler tour of a tree is derived from a doubly-connected-edge-list style
structure over the ``2(n-1)`` directed half-edges: every half-edge stores a
``twin`` pointer (the opposite direction of the same undirected edge) and a
``next`` pointer (the next half-edge leaving the same source node, cyclically).

Construction follows the paper exactly:

1. build array ``A`` of directed half-edges with each undirected edge
   contributing its two directions *adjacently* — so ``twin`` is free;
2. build ``B``, the lexicographically sorted copy of ``A`` (sorted by
   ``(source, target)``), keeping cross pointers between the two copies;
3. ``next`` of an edge is its successor inside its source's block of ``B``,
   wrapping around to ``first[source]`` at the block boundary.

The sort is the dominant cost, which is why the cost model charges it as a
full radix sort of the half-edge array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import NotATreeError
from ..graphs.edgelist import EdgeList
from ..primitives import sort_pairs


@dataclass
class DCEL:
    """Half-edge structure of a tree.

    Half-edge ``2i`` is undirected edge ``i`` traversed from ``u[i]`` to
    ``v[i]``; half-edge ``2i + 1`` is the reverse.  All arrays are indexed by
    half-edge id.

    Attributes
    ----------
    src, dst:
        Endpoints of each half-edge.
    twin:
        Id of the opposite-direction half-edge (an involution).
    next:
        Id of the next half-edge with the same source, cyclic per source.
    first:
        For every node, the id of the lexicographically first half-edge
        leaving it (-1 for isolated nodes, which cannot occur in a tree with
        more than one node).
    n:
        Number of tree nodes.
    """

    src: np.ndarray
    dst: np.ndarray
    twin: np.ndarray
    next: np.ndarray
    first: np.ndarray
    n: int

    @property
    def num_halfedges(self) -> int:
        """Number of directed half-edges, ``2(n-1)``."""
        return int(self.src.size)


def build_dcel(tree_edges: EdgeList, *, ctx: Optional[ExecutionContext] = None) -> DCEL:
    """Construct the DCEL of an (unrooted) tree given as an undirected edge list.

    Raises :class:`NotATreeError` when the edge count is not ``n - 1``; full
    connectivity/acyclicity is verified later by the tour construction (a
    disconnected "tree" yields a tour that does not cover all half-edges).
    """
    ctx = ensure_context(ctx)
    n = tree_edges.num_nodes
    m = tree_edges.num_edges
    if n == 0:
        raise NotATreeError("a tree must have at least one node")
    if m != n - 1:
        raise NotATreeError(f"a tree on {n} nodes needs {n - 1} edges, got {m}")
    if np.any(tree_edges.u == tree_edges.v):
        raise NotATreeError("trees cannot contain self-loops")

    # Array A: interleaved directions so twin(e) = e XOR 1.
    src, dst = tree_edges.directed_halfedges()
    h = src.size  # = 2 m
    twin = np.arange(h, dtype=np.int64)
    twin ^= 1
    ctx.kernel(
        "dcel_build_A",
        threads=max(h, 1),
        ops=2.0 * h,
        bytes_read=float(tree_edges.u.nbytes + tree_edges.v.nbytes),
        bytes_written=float(src.nbytes + dst.nbytes + twin.nbytes),
        launches=1,
    )

    if h == 0:
        return DCEL(
            src=src, dst=dst, twin=twin,
            next=np.empty(0, dtype=np.int64),
            first=np.full(n, -1, dtype=np.int64),
            n=n,
        )

    # Array B: lexicographically sorted copy, with `order` giving, for each
    # position in B, the corresponding half-edge id in A.
    sorted_src, order = sort_pairs(src, dst, ctx=ctx)

    # B is a run of blocks, one per source: bounds[k] is the position in B of
    # the first half-edge leaving the k-th source, and bounds[-1] == h.
    is_bound = np.ones(h + 1, dtype=bool)
    np.not_equal(sorted_src[1:], sorted_src[:-1], out=is_bound[1:h])
    bounds = np.flatnonzero(is_bound)
    starts = bounds[:-1]
    block_first = order[starts]

    # first[x]: the first half-edge leaving x.
    first = np.full(n, -1, dtype=np.int64)
    first[sorted_src[starts]] = block_first
    del sorted_src

    # next pointers: within a block, the half-edge at the next position in B;
    # at a block's end (before the next bound), the second scatter wraps it.
    nxt = np.empty(h, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    nxt[order[bounds[1:] - 1]] = block_first

    ctx.kernel(
        "dcel_build_next",
        threads=h,
        ops=5.0 * h,
        bytes_read=float(h) * 40.0,
        bytes_written=float(h) * 16.0 + float(first.nbytes),
        launches=3,
        random_access=True,
    )
    return DCEL(src=src, dst=dst, twin=twin, next=nxt, first=first, n=n)
