"""RMQ-based LCA (Bender–Farach-Colton style), the paper's §3.1 CPU baseline.

The reduction: write down the Euler tour of the tree as the sequence of nodes
visited (length ``2n - 1``), record each node's depth along the sequence and
the first position at which each node occurs; then

``LCA(x, y) = the node of minimum depth in the tour segment between the first
occurrences of x and y``.

The paper's preliminary experiment uses "a variant of [9], using a segment
tree and without the preprocessed lookup tables"; both the segment-tree and
sparse-table backends are available here (the former is the default to match
the paper, the latter is the textbook O(1)-query variant).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..boundary import parent_ids, query_columns
from ..device import ExecutionContext, ensure_context
from ..errors import InvalidQueryError
from ..euler import build_euler_tour_from_parents
from ..graphs.trees import validate_parents
from ..primitives import build_rmq

__all__ = ["RMQLCA"]


class RMQLCA:
    """LCA via reduction to range-minimum queries over the Euler tour.

    Parameters
    ----------
    parents:
        Tree as a parent array (``-1`` marks the root).
    backend:
        ``"segment-tree"`` (paper's §3.1 baseline) or ``"sparse-table"``.
    sequential_cost:
        When true (default), preprocessing and queries are charged as
        sequential CPU work — this class plays the role of the single-core
        baseline in the preliminary experiment.  When false they are charged
        as bulk kernels, giving a parallel RMQ-based LCA for comparison.
    """

    name = "RMQ-based LCA"

    #: Modeled sequential preprocessing cost per node: Euler tour by DFS plus
    #: segment-tree construction over a 2n-1 array.
    _PREPROCESS_OPS_PER_NODE = 18.0
    _PREPROCESS_BYTES_PER_NODE = 120.0
    #: Modeled per-query cost: a segment-tree descent is ~2 log n node visits,
    #: most of which hit cached upper levels of the tree.
    _QUERY_OPS_PER_LEVEL = 6.0
    _QUERY_BYTES_PER_LEVEL = 16.0

    def __init__(self, parents: np.ndarray, *, backend: str = "segment-tree",
                 sequential_cost: bool = True,
                 ctx: Optional[ExecutionContext] = None,
                 validate: bool = False) -> None:
        ctx = ensure_context(ctx)
        parents = parent_ids(parents)
        if validate:
            validate_parents(parents)
        n = parents.size
        self.n_nodes = n
        self.backend = backend
        self.sequential_cost = sequential_cost

        charge_ctx = None if sequential_cost else ctx
        with ctx.phase("preprocessing"):
            tour = build_euler_tour_from_parents(parents, ctx=charge_ctx)
            # Node visit sequence: root followed by the destination of every
            # tour half-edge; depths along the sequence differ by ±1.
            if tour.length:
                visit_nodes = tour.nodes_in_tour_order()
                is_down = tour.rank < tour.rank[tour.twin]
                deltas = np.where(is_down[tour.tour], 1, -1)
                visit_depths = np.concatenate(
                    [np.zeros(1, dtype=np.int64), np.cumsum(deltas)]
                )
            else:
                visit_nodes = np.asarray([tour.root], dtype=np.int64)
                visit_depths = np.zeros(1, dtype=np.int64)
            # First occurrence of each node in the visit sequence.
            first = np.full(n, -1, dtype=np.int64)
            # reversed scatter: later writes win, so iterate positions backwards
            first[visit_nodes[::-1]] = np.arange(visit_nodes.size - 1, -1, -1)
            self.first = first
            self.visit_nodes = visit_nodes
            # Encode (depth, node) pairs so that min-by-encoded-value recovers
            # the node at minimum depth.
            encode_base = np.int64(n + 1)
            encoded = visit_depths * encode_base + visit_nodes
            self._encode_base = encode_base
            self.rmq = build_rmq(encoded, "min", backend=backend, ctx=charge_ctx)
            if sequential_cost:
                ctx.sequential(
                    "rmq_lca_preprocess",
                    ops=self._PREPROCESS_OPS_PER_NODE * n,
                    bytes_touched=self._PREPROCESS_BYTES_PER_NODE * n,
                    random_access=True,
                )
        self._log_n = max(1, int(np.ceil(np.log2(max(n, 2)))))

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return self.n_nodes

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries via range-minimum queries."""
        ctx = ensure_context(ctx)
        xs, ys = query_columns(xs, ys)
        if xs.size and (min(xs.min(), ys.min()) < 0 or max(xs.max(), ys.max()) >= self.n):
            raise InvalidQueryError("query nodes out of range")
        with ctx.phase("queries"):
            fx = self.first[xs]
            fy = self.first[ys]
            lo = np.minimum(fx, fy)
            hi = np.maximum(fx, fy)
            charge_ctx = None if self.sequential_cost else ctx
            encoded = self.rmq.query(lo, hi, ctx=charge_ctx)
            answer = (encoded % self._encode_base).astype(np.int64)
            if self.sequential_cost:
                per_query_levels = self._log_n if self.backend.startswith("segment") else 2
                ctx.sequential(
                    "rmq_lca_query_batch",
                    ops=self._QUERY_OPS_PER_LEVEL * per_query_levels * xs.size,
                    bytes_touched=self._QUERY_BYTES_PER_LEVEL * per_query_levels * xs.size,
                    random_access=True,
                )
        return answer
