"""Compressed sparse row (CSR) adjacency representation.

CSR is the workhorse layout for GPU graph algorithms: a single ``indptr``
offset array plus a flat ``indices`` neighbour array allow frontier expansion
(BFS), neighbour gathering (CK marking) and per-node segmented reductions
(TV ``low``/``high``) to be expressed as bulk array operations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError
from .edgelist import EdgeList


class CSRGraph:
    """Undirected graph in CSR form.

    Each undirected edge appears twice (once per direction).  ``edge_ids``
    maps every directed slot back to the index of the originating undirected
    edge in the source :class:`~repro.graphs.edgelist.EdgeList`, which is what
    lets bridge finders report results per original edge.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbours of node ``u`` live in
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        Flat neighbour array of length ``2m``.
    edge_ids:
        Undirected-edge id for each slot of ``indices`` (length ``2m``).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 edge_ids: np.ndarray, n: int, m: int) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self.n = int(n)
        self.m = int(m)
        if self.indptr.shape != (self.n + 1,):
            raise InvalidGraphError("indptr must have length n + 1")
        if self.indices.shape != self.edge_ids.shape:
            raise InvalidGraphError("indices and edge_ids must align")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise InvalidGraphError("indptr must start at 0 and end at len(indices)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edgelist(cls, edges: EdgeList,
                      *, ctx: Optional[ExecutionContext] = None) -> "CSRGraph":
        """Build CSR adjacency from an undirected edge list.

        Charged as the standard GPU pipeline: a histogram of degrees, an
        exclusive scan for ``indptr``, and a scatter of both directions of
        every edge.
        """
        ctx = ensure_context(ctx)
        n, m = edges.num_nodes, edges.num_edges
        src, dst = edges.directed_halfedges()
        deg = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        indices = dst[order]
        edge_ids = order >> 1  # half-edge 2i and 2i + 1 are undirected edge i
        ctx.kernel(
            "csr_build",
            threads=max(2 * m, 1),
            ops=6.0 * max(2 * m, 1),
            bytes_read=float(3 * src.nbytes),  # src, dst, edge ids
            bytes_written=float(indices.nbytes + edge_ids.nbytes + indptr.nbytes),
            launches=4,
            random_access=True,
        )
        return cls(indptr, indices, edge_ids, n, m)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges."""
        return self.m

    @property
    def num_halfedges(self) -> int:
        """Number of directed adjacency slots (``2m``)."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.diff(self.indptr)

    def expand_frontier(self, frontier: np.ndarray,
                        *, ctx: Optional[ExecutionContext] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather all adjacency slots of the ``frontier`` nodes.

        Returns ``(sources, targets, edge_ids)``: for every directed edge out
        of a frontier node, the frontier node, its neighbour, and the
        undirected edge id.  This is the edge-centric frontier expansion used
        by level-synchronous BFS; it is charged as one gather kernel of
        ``len(result)`` threads.
        """
        ctx = ensure_context(ctx)
        frontier = np.asarray(frontier, dtype=np.int64)
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        # Flat index construction: for each frontier node f with slot range
        # [starts, starts+counts), emit those slots contiguously.
        offsets = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        flat = np.arange(total, dtype=np.int64)
        which = np.repeat(np.arange(frontier.size, dtype=np.int64), counts)
        slot = starts[which] + (flat - offsets[which])
        sources = frontier[which]
        targets = self.indices[slot]
        eids = self.edge_ids[slot]
        ctx.kernel(
            "frontier_expand",
            threads=total,
            ops=3.0 * total,
            bytes_read=float(total) * 24.0 + float(frontier.nbytes) * 2,
            bytes_written=float(total) * 24.0,
            launches=2,
            random_access=True,
        )
        return sources, targets, eids
