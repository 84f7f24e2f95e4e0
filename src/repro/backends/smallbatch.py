"""Tuned low-overhead Inlabel kernel for small batches.

The vectorized :func:`repro.lca.inlabel._query_inlabel` kernel is built for
bulk batches: each call pays ~25 NumPy dispatches and as many temporary array
allocations before any real work happens.  Amortized over thousands of
queries that overhead vanishes; on the single-query hot path — a hedged
retry, a cache-miss straggler, an interactive probe — it *is* the latency
(~17 microseconds of dispatch for ~30 integer operations of actual LCA
arithmetic).

:class:`SmallBatchBackend` compiles a kernel specialized for that regime:

* **compile-time layout**: the Inlabel tables are pinned as plain Python int
  lists at compile time, so the hot loop does list indexing and native int
  arithmetic with no numpy scalar boxing;
* **fused probe passes**: each query runs the whole probe sequence (inlabel
  compare → common-ascendant level → both climbs → depth tie-break) as one
  pass of exact integer ops that skips what the query does not need — the
  vectorized kernel computes every lane in full and discards;
* **no per-call array allocation**: answers are written into a preallocated
  scratch buffer.

Batches larger than the scratch fall back to the vectorized kernel, so the
backend is correct at any size and merely fastest below its tuning point
(measured crossover ≈ 20 queries on the reference container — ~3 us + ~0.75 us
per query against a flat ~17 us; the default scratch of 16 stays inside it).

Answers are bit-identical to :func:`~repro.lca.inlabel._query_inlabel` by
construction: Python ints evaluate the same fixed-width bit expressions
exactly (every intermediate fits in int64), so where the scalar pass climbs
it computes the values the vectorized pass keeps, and where it returns early
the vectorized pass's general formula reduces to the same node.

The returned answer array is a view into the kernel's scratch: it is valid
until the next launch on the same compiled kernel.  The serving layer copies
answers into its result tables immediately, so this is safe there; callers
holding answers across launches must copy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..boundary import count, query_columns
from ..device import ExecutionContext
from ..errors import InvalidQueryError
from ..lca.inlabel import (
    INLABEL_QUERY_COST,
    InlabelIndex,
    InlabelStructure,
    _query_inlabel,
    charge_sequential_build,
)
from .base import CompiledKernel, KernelBackend

__all__ = ["SmallBatchBackend", "SMALLBATCH_BACKEND_KEY", "DEFAULT_SCRATCH_SIZE"]

SMALLBATCH_BACKEND_KEY = "smallbatch"

#: Batches up to this size run the fused scalar pass; larger ones fall back
#: to the vectorized kernel.
DEFAULT_SCRATCH_SIZE = 16


class _SmallBatchKernel(CompiledKernel):
    """Compile-time-specialized Inlabel kernel for one tree."""

    def __init__(self, structure: InlabelStructure, scratch_size: int) -> None:
        self.structure = structure
        self.scratch_size = scratch_size
        # Compile-time specialization: pin the tables as plain Python ints so
        # the fused pass never touches numpy scalar boxing.
        self._inlabel = structure.inlabel.tolist()
        self._ascendant = structure.ascendant.tolist()
        self._head = structure.head.tolist()
        self._depth = structure.depth.tolist()
        self._parent = structure.parent.tolist()
        # Preallocated answer scratch (the only array the hot path writes).
        self._out = np.empty(self.scratch_size, np.int64)

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        return self.structure.n

    def query(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        ctx: Optional[ExecutionContext] = None,
    ) -> np.ndarray:
        """Answer one batch; ``ctx`` books the sequential-CPU charge for it."""
        xs, ys = query_columns(xs, ys)
        if xs.size == 0:
            answers = np.empty(0, dtype=np.int64)
        elif xs.size > self.scratch_size:
            # Correct at any size: the vectorized kernel handles the rest.
            answers = _query_inlabel(self.structure, xs, ys)
        else:
            answers = self._fused(xs, ys, int(xs.size))
        if ctx is not None:
            # Identical modeled shape to the sequential CPU baseline: the
            # tuned kernel does the same logical work, it just wastes less
            # host time.
            with ctx.phase("queries"):
                ctx.sequential(
                    "smallbatch_inlabel_query_batch",
                    ops=INLABEL_QUERY_COST.ops * xs.size,
                    bytes_touched=INLABEL_QUERY_COST.bytes_read * xs.size,
                    random_access=True,
                )
        return answers

    def _fused(self, xs: np.ndarray, ys: np.ndarray, m: int) -> np.ndarray:
        inlabel = self._inlabel
        ascendant = self._ascendant
        head = self._head
        depth = self._depth
        parent = self._parent
        n = self.structure.n
        out = self._out[:m]
        xl = xs.tolist()
        yl = ys.tolist()
        for j in range(m):
            x = xl[j]
            y = yl[j]
            if x < 0 or x >= n or y < 0 or y >= n:
                raise InvalidQueryError("query nodes out of range")
            ix = inlabel[x]
            iy = inlabel[y]
            if ix == iy:
                # Same inlabel path: the shallower endpoint is the LCA.
                out[j] = x if depth[x] <= depth[y] else y
                continue
            # One fused probe pass; the exact int expressions of the
            # vectorized kernel (see _query_tile for the derivation),
            # branching where that one computes and discards.
            i = (ix ^ iy).bit_length() - 1
            common = ascendant[x] & ascendant[y]
            common_high = (common >> i) << i
            low_j = common_high & -common_high
            inlabel_z = (ix & ~((low_j << 1) - 1)) | low_j
            if ix == inlabel_z:
                xbar = x
            else:
                below = ascendant[x] & (low_j - 1)
                high_k = 1 << (below.bit_length() - 1)
                xbar = parent[head[(ix & ~((high_k << 1) - 1)) | high_k]]
            if iy == inlabel_z:
                ybar = y
            else:
                below = ascendant[y] & (low_j - 1)
                high_k = 1 << (below.bit_length() - 1)
                ybar = parent[head[(iy & ~((high_k << 1) - 1)) | high_k]]
            out[j] = xbar if depth[xbar] <= depth[ybar] else ybar
        return out


class SmallBatchBackend(KernelBackend):
    """Preallocated-scratch, fused-pass Inlabel backend for small batches."""

    key = SMALLBATCH_BACKEND_KEY
    label = "Tuned small-batch Inlabel"

    def __init__(self, *, scratch_size: int = DEFAULT_SCRATCH_SIZE) -> None:
        self.scratch_size = count(scratch_size, "scratch_size")

    def compile(
        self, index: InlabelIndex, *, ctx: Optional[ExecutionContext] = None
    ) -> CompiledKernel:
        """Pin ``index``'s tables in hot-loop layout (one set per artifact).

        The modeled preprocessing charge matches the sequential CPU baseline
        (:class:`~repro.lca.SequentialInlabelLCA`) — same logical work.
        """
        structure = index.structure
        charge_sequential_build(structure.n, ctx, "smallbatch_inlabel_preprocess")
        return _SmallBatchKernel(structure, self.scratch_size)
