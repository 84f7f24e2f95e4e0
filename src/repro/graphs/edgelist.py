"""Undirected edge-list graph representation.

The Euler tour construction in the paper deliberately starts from "a very
unstructured input: an unordered collection of undirected edges, represented
as pairs of node identifiers" (§2.1).  :class:`EdgeList` is exactly that —
two parallel integer arrays plus the node count — with the small amount of
validation and normalization the algorithms rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..boundary import int_scalar, node_ids
from ..errors import InvalidGraphError


@dataclass
class EdgeList:
    """An undirected multigraph as parallel source/target arrays.

    Attributes
    ----------
    u, v:
        ``int64`` arrays of equal length ``m``; edge ``i`` joins ``u[i]`` and
        ``v[i]``.  The graph is undirected: ``(u, v)`` and ``(v, u)`` denote
        the same edge.
    n:
        Number of nodes; all identifiers must lie in ``[0, n)``.
    """

    u: np.ndarray
    v: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.u = node_ids(self.u, "edge endpoints")
        self.v = node_ids(self.v, "edge endpoints")
        if self.u.shape != self.v.shape:
            raise InvalidGraphError("u and v must be 1-D arrays of equal length")
        self.n = int_scalar(self.n, InvalidGraphError, "node count")
        if self.n < 0:
            raise InvalidGraphError("node count must be non-negative")
        if self.u.size:
            lo = min(int(self.u.min()), int(self.v.min()))
            hi = max(int(self.u.max()), int(self.v.max()))
            if lo < 0 or hi >= self.n:
                raise InvalidGraphError(
                    f"edge endpoints must lie in [0, {self.n}); found range [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (counting multiplicity)."""
        return int(self.u.size)

    def __len__(self) -> int:
        return self.num_edges

    def copy(self) -> "EdgeList":
        """Deep copy of the edge list."""
        return EdgeList(self.u.copy(), self.v.copy(), self.n)

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate over edges as Python ``(u, v)`` tuples (for tests/IO)."""
        return zip(self.u.tolist(), self.v.tolist())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]], n: Optional[int] = None
                   ) -> "EdgeList":
        """Build an edge list from an iterable of ``(u, v)`` pairs.

        When ``n`` is omitted it is inferred as ``max id + 1`` (0 for an empty
        graph).
        """
        arr = np.asarray(list(pairs))
        if arr.size == 0:
            u = np.empty(0, dtype=np.int64)
            v = np.empty(0, dtype=np.int64)
        else:
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise InvalidGraphError("pairs must be an iterable of (u, v) tuples")
            u, v = arr[:, 0].copy(), arr[:, 1].copy()
        if n is None:
            n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1) if u.size else 0
        return cls(u, v, n)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def without_self_loops(self) -> "EdgeList":
        """Copy of the edge list with self-loops removed."""
        keep = self.u != self.v
        return EdgeList(self.u[keep], self.v[keep], self.n)

    def canonical_undirected(self) -> "EdgeList":
        """Copy with every edge stored as ``(min(u,v), max(u,v))``."""
        lo = np.minimum(self.u, self.v)
        hi = np.maximum(self.u, self.v)
        return EdgeList(lo, hi, self.n)

    def deduplicated(self) -> "EdgeList":
        """Copy with self-loops removed and parallel edges collapsed."""
        simple = self.without_self_loops().canonical_undirected()
        if simple.num_edges == 0:
            return simple
        key = simple.u * np.int64(simple.n) + simple.v
        _, first = np.unique(key, return_index=True)
        first.sort()
        return EdgeList(simple.u[first], simple.v[first], simple.n)

    def degrees(self) -> np.ndarray:
        """Degree of every node (self-loops count twice, as usual)."""
        deg = np.bincount(self.u, minlength=self.n)
        deg += np.bincount(self.v, minlength=self.n)
        return deg.astype(np.int64)

    # ------------------------------------------------------------------
    # Derived representations
    # ------------------------------------------------------------------
    def directed_halfedges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``2m`` directed half-edges ``(src, dst)``.

        For undirected edge ``i = (x, y)``, half-edges ``2i = (x, y)`` and
        ``2i + 1 = (y, x)`` are adjacent in the output — the layout the DCEL
        construction (paper §2.1, array ``A``) requires, where an edge's twin
        is its neighbour in ``A`` and its undirected id is ``halfedge >> 1``.
        """
        src = np.column_stack((self.u, self.v)).ravel()
        dst = np.column_stack((self.v, self.u)).ravel()
        return src, dst

    def relabeled(self, permutation: np.ndarray) -> "EdgeList":
        """Apply a node relabeling: node ``i`` becomes ``permutation[i]``."""
        permutation = node_ids(permutation, "permutation")
        if permutation.shape != (self.n,):
            raise InvalidGraphError("permutation must have length n")
        if np.unique(permutation).size != self.n:
            raise InvalidGraphError("permutation must be a bijection on [0, n)")
        return EdgeList(permutation[self.u], permutation[self.v], self.n)

    def subgraph(self, node_mask: np.ndarray) -> Tuple["EdgeList", np.ndarray]:
        """Induced subgraph on the nodes where ``node_mask`` is true.

        Returns the new edge list (nodes renumbered densely, preserving order)
        and the array of old node ids for each new id.
        """
        node_mask = np.asarray(node_mask, dtype=bool)
        if node_mask.shape != (self.n,):
            raise InvalidGraphError("node_mask must have length n")
        old_ids = np.flatnonzero(node_mask)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[old_ids] = np.arange(old_ids.size)
        keep = node_mask[self.u] & node_mask[self.v]
        sub = EdgeList(new_id[self.u[keep]], new_id[self.v[keep]], int(old_ids.size))
        return sub, old_ids
