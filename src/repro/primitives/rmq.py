"""Range-minimum/maximum query structures: segment tree and sparse table.

Two Euler-tour applications in the paper need range min/max over arrays laid
out in tour (preorder) order:

* Tarjan–Vishkin bridges aggregate per-node minimum/maximum non-tree
  neighbours over subtrees, which are contiguous preorder intervals
  (paper §4.1, "we do using the segment tree data structure");
* the RMQ-based LCA baseline used in the §3.1 preliminary CPU experiment.

Both backends are built level by level with bulk kernels and answer *batches*
of queries with ``O(log n)`` lockstep rounds, which is how a GPU would
traverse them.  The sparse table trades ``O(n log n)`` memory for
constant-round queries; it is the ablation alternative
(``benchmarks/bench_ablations.py``; docs/architecture.md, "Preprocessing on the
host", says how a segment-tree query is charged).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..boundary import range_bounds
from ..device import ExecutionContext, ensure_context

_OPS = {"min": np.minimum, "max": np.maximum}

#: Segment-tree levels smaller than this are built together in one cleanup
#: kernel instead of one launch each (see :class:`SegmentTreeRMQ`).
_SMALL_LEVEL_THRESHOLD = 4096


def _identity_for(op: str, dtype: np.dtype):
    if op == "min":
        return np.iinfo(dtype).max if np.issubdtype(dtype, np.integer) else np.inf
    return np.iinfo(dtype).min if np.issubdtype(dtype, np.integer) else -np.inf


def _bounds(lo: object, hi: object) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Both bounds (:data:`repro.boundary.range_bounds`); is ``lo`` a scalar?"""
    lo_ids, hi_ids = range_bounds(lo), range_bounds(hi)
    if lo_ids.shape != hi_ids.shape:
        raise ValueError("lo and hi must have the same shape")
    return lo_ids, hi_ids, np.ndim(lo) == 0


class SegmentTreeRMQ:
    """Iterative (bottom-up) segment tree answering range min/max queries.

    Parameters
    ----------
    values:
        1-D array the tree is built over.
    op:
        ``"min"`` or ``"max"``.
    ctx:
        Optional execution context; construction charges one kernel per tree
        level, queries charge one kernel per level per batch.
    """

    def __init__(self, values: np.ndarray, op: str = "min",
                 *, ctx: Optional[ExecutionContext] = None) -> None:
        if op not in _OPS:
            raise ValueError(f"op must be 'min' or 'max', got {op!r}")
        ctx = ensure_context(ctx)
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("SegmentTreeRMQ expects a 1-D array")
        if values.size == 0:
            raise ValueError("cannot build an RMQ structure over an empty array")
        self.op = op
        self.n = int(values.size)
        size = 1
        while size < self.n:
            size *= 2
        self.size = size
        identity = _identity_for(op, values.dtype)
        self._identity = identity
        tree = np.full(2 * size, identity, dtype=values.dtype)
        tree[size:size + self.n] = values
        ufunc = _OPS[op]
        # Build one level at a time; each sufficiently large level is its own
        # bulk kernel, while all the small top levels (whose total size is
        # negligible) are folded into a single cleanup kernel — the standard
        # way GPU segment-tree builds avoid paying one launch per tiny level.
        level_size = size // 2
        small_level_elements = 0
        small_level_ops = 0.0
        while level_size >= 1:
            lo = level_size
            hi = 2 * level_size
            ufunc(tree[2 * lo:2 * hi:2], tree[2 * lo + 1:2 * hi:2], out=tree[lo:hi])
            if level_size >= _SMALL_LEVEL_THRESHOLD:
                ctx.kernel(
                    "segtree_build_level",
                    threads=level_size,
                    ops=float(level_size),
                    bytes_read=2.0 * level_size * tree.dtype.itemsize,
                    bytes_written=1.0 * level_size * tree.dtype.itemsize,
                    launches=1,
                )
            else:
                small_level_elements += level_size
                small_level_ops += float(level_size)
            level_size //= 2
        if small_level_elements:
            ctx.kernel(
                "segtree_build_top_levels",
                threads=small_level_elements,
                ops=small_level_ops,
                bytes_read=2.0 * small_level_elements * tree.dtype.itemsize,
                bytes_written=1.0 * small_level_elements * tree.dtype.itemsize,
                launches=1,
            )
        self.tree = tree

    def query(self, lo: np.ndarray, hi: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of inclusive range queries ``[lo[i], hi[i]]``.

        Empty ranges (``lo > hi``) return the operation identity.
        """
        ctx = ensure_context(ctx)
        lo, hi, scalar = _bounds(lo, hi)
        live = np.flatnonzero(lo <= hi)  # empty ranges never enter the descent
        left = lo.take(live)
        r = hi.take(live)
        if live.size and (left.min() < 0 or r.max() >= self.n):
            raise IndexError("query range out of bounds")
        q = lo.size
        tree = self.tree
        ufunc = _OPS[self.op]
        result = np.full(q, self._identity, dtype=tree.dtype)
        left += self.size
        r += self.size + 1  # exclusive
        acc = np.full(live.size, self._identity, dtype=tree.dtype)
        # On the device each query thread performs its own O(log n) bottom-up
        # descent inside a single kernel, charged once at the end; the only
        # data-dependent input of that charge is the round count of the lane
        # that closes last.  The host keeps just the lanes still open, so a
        # lane costs its own rounds and not the slowest lane's.  Slot 0 of the
        # iterative tree is never a node and holds the identity, which makes
        # both folds branch-free: an even ``left`` or ``r`` gathers slot 0.
        rounds = 0
        while live.size:
            odd = left & 1
            ufunc(acc, tree.take(left * odd), out=acc)
            left += odd
            odd = r & 1
            r -= odd
            ufunc(acc, tree.take(r * odd), out=acc)
            left >>= 1
            r >>= 1
            rounds += 1
            if rounds > 2 * int(np.log2(self.size)) + 4:  # pragma: no cover - defensive
                raise RuntimeError("segment tree query did not converge")
            closed = np.flatnonzero(left >= r)
            if closed.size:
                result[live.take(closed)] = acc.take(closed)
                keep = np.flatnonzero(left < r)
                live, left, r, acc = (a.take(keep) for a in (live, left, r, acc))
        levels = max(rounds, 1)
        ctx.kernel(
            "segtree_query",
            threads=q,
            ops=4.0 * q * levels,
            bytes_read=float(q) * levels * 16.0,
            bytes_written=float(q) * 8.0,
            launches=1,
            random_access=True,
        )
        return result[0] if scalar else result

    @property
    def identity(self):
        """The neutral element returned for empty query ranges."""
        return self._identity


class SparseTableRMQ:
    """Sparse-table RMQ: ``O(n log n)`` preprocessing, O(1)-round batch queries."""

    def __init__(self, values: np.ndarray, op: str = "min",
                 *, ctx: Optional[ExecutionContext] = None) -> None:
        if op not in _OPS:
            raise ValueError(f"op must be 'min' or 'max', got {op!r}")
        ctx = ensure_context(ctx)
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("SparseTableRMQ expects a 1-D array")
        if values.size == 0:
            raise ValueError("cannot build an RMQ structure over an empty array")
        self.op = op
        self.n = int(values.size)
        self._identity = _identity_for(op, values.dtype)
        levels = max(1, int(np.floor(np.log2(self.n))) + 1)
        table = np.empty((levels, self.n), dtype=values.dtype)
        table[0] = values
        ufunc = _OPS[op]
        for k in range(1, levels):
            span = 1 << k
            half = span >> 1
            width = self.n - span + 1
            if width <= 0:
                table[k] = table[k - 1]
                continue
            table[k, :width] = ufunc(table[k - 1, :width], table[k - 1, half:half + width])
            table[k, width:] = table[k - 1, width:]
            ctx.kernel(
                "sparse_table_build_level",
                threads=width,
                ops=float(width),
                bytes_read=2.0 * width * values.dtype.itemsize,
                bytes_written=1.0 * width * values.dtype.itemsize,
                launches=1,
            )
        self.table = table
        self.levels = levels

    def query(self, lo: np.ndarray, hi: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of inclusive range queries ``[lo[i], hi[i]]``.

        Empty ranges return the operation identity.  Each query combines two
        overlapping power-of-two windows, i.e. a single kernel regardless of
        range length.
        """
        ctx = ensure_context(ctx)
        lo, hi, scalar = _bounds(lo, hi)
        populated = lo <= hi
        if populated.any() and (lo[populated].min() < 0 or hi[populated].max() >= self.n):
            raise IndexError("query range out of bounds")
        q = lo.size
        result = np.full(q, self._identity, dtype=self.table.dtype)
        if populated.any():
            plo = lo[populated]
            phi = hi[populated]
            length = phi - plo + 1
            k = np.floor(np.log2(length)).astype(np.int64)
            left = self.table[k, plo]
            right = self.table[k, phi - (1 << k) + 1]
            result[populated] = _OPS[self.op](left, right)
        ctx.kernel(
            "sparse_table_query",
            threads=q,
            ops=4.0 * q,
            bytes_read=float(q) * 4.0 * 8.0,
            bytes_written=float(q) * 8.0,
            launches=1,
            random_access=True,
        )
        return result[0] if scalar else result

    @property
    def identity(self):
        """The neutral element returned for empty query ranges."""
        return self._identity


_BACKENDS = {
    "segment-tree": SegmentTreeRMQ,
    "segtree": SegmentTreeRMQ,
    "sparse-table": SparseTableRMQ,
    "sparsetable": SparseTableRMQ,
}


def rmq_backend_class(backend: str) -> type:
    """The RMQ class a backend name selects; ``ValueError`` for an unknown one."""
    try:
        return _BACKENDS[backend.strip().lower().replace("_", "-")]
    except KeyError:
        raise ValueError(f"unknown RMQ backend {backend!r}") from None


def build_rmq(values: np.ndarray, op: str = "min", *, backend: str = "segment-tree",
              ctx: Optional[ExecutionContext] = None):
    """Build an RMQ structure with the requested backend.

    ``backend`` is ``"segment-tree"`` (the paper's choice) or ``"sparse-table"``.
    """
    return rmq_backend_class(backend)(values, op, ctx=ctx)
