"""The Inlabel artifacts a server builds over one tree's host index, in one table.

An artifact has ``n`` and ``query(xs, ys, *, ctx=None)``; it *answers*, and
the dispatcher's estimate is what a served batch costs (``ctx`` books the
artifact's own modeled charge for offline use).  Every artifact is
bit-identical to :mod:`repro.lca.reference` on every valid batch.
:data:`ARTIFACT_BUILDERS` maps each variant to the function that builds it
over an :class:`~repro.lca.InlabelIndex`, charging the build to ``ctx``; the
index registry and the calibration harness read it, nothing else resolves a
variant.  ``"parallel"`` and ``"sequential"`` are the two Inlabel flavours;
``"smallbatch"`` is the kernel below.

The vectorized :func:`repro.lca.inlabel._query_inlabel` pays ~25 NumPy
dispatches per call — nothing over thousands of queries, but on the
single-query hot path (a hedged retry, a cache-miss straggler) it *is* the
latency: ~17 us of dispatch for ~30 integer operations.  The small-batch
kernel pins the three packed tables the query reads (``node_word``,
``node_key``, ``head_key``) as Python int lists at build time (no numpy
scalar boxing), runs :func:`~repro.lca.inlabel._query_tile`'s arithmetic one
query at a time, climbing only an endpoint that needs it, and writes answers
into a preallocated scratch of :data:`DEFAULT_SCRATCH_SIZE` queries.  Larger
batches fall back to the vectorized kernel (measured crossover ≈ 20 queries:
~3 us + ~0.75 us per query against a flat ~17 us).  Python ints evaluate the
same fixed-width bit expressions exactly, so the scalar pass computes the
values the vectorized pass keeps.  The answer array is a view into the
scratch, valid until the kernel's next launch; the serving layer copies it
at once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from ..boundary import query_columns
from ..device import ExecutionContext
from ..errors import InvalidQueryError
from .inlabel import (
    INLABEL_QUERY_COST,
    InlabelIndex,
    InlabelLCA,
    InlabelStructure,
    SequentialInlabelLCA,
    _query_inlabel,
    charge_sequential_build,
)

__all__ = ["ARTIFACT_BUILDERS", "CompiledKernel", "DEFAULT_SCRATCH_SIZE",
           "build_smallbatch"]

#: Batches up to this size run the fused scalar pass; larger ones fall back
#: to the vectorized kernel.
DEFAULT_SCRATCH_SIZE = 16


class CompiledKernel:
    """A kernel compiled for one tree, ready to answer query batches."""

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        raise NotImplementedError

    def query(self, xs: np.ndarray, ys: np.ndarray, *,
              ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer one batch of LCA queries as an ``int64`` array.

        ``ctx``, when given, receives the kernel's modeled charge for the
        batch, exactly like the LCA classes' ``query``.
        """
        raise NotImplementedError


class _SmallBatchKernel(CompiledKernel):
    """Compile-time-specialized Inlabel kernel for one tree."""

    def __init__(self, structure: InlabelStructure) -> None:
        self.structure = structure
        # Compile-time specialization: pin the packed tables as plain Python
        # ints so the fused pass never touches numpy scalar boxing.
        self._node_word = structure.node_word.tolist()
        self._node_key = structure.node_key.tolist()
        self._head_key = structure.head_key.tolist()
        # Preallocated answer scratch (the only array the hot path writes).
        self._out = np.empty(DEFAULT_SCRATCH_SIZE, np.int64)

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        return self.structure.n

    def query(self, xs: np.ndarray, ys: np.ndarray, *,
              ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer one batch; ``ctx`` books the sequential-CPU charge for it."""
        xs, ys = query_columns(xs, ys)
        if xs.size == 0:
            answers = np.empty(0, dtype=np.int64)
        elif xs.size > DEFAULT_SCRATCH_SIZE:
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
        word, key, head_key = self._node_word, self._node_key, self._head_key
        n = self.structure.n
        out = self._out[:m]
        for j, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            if x < 0 or x >= n or y < 0 or y >= n:
                raise InvalidQueryError("query nodes out of range")
            # _query_tile's expressions, one lane (see it for the derivation):
            # i is the highest differing inlabel bit (0 for equal ones).
            wx, wy = word[x], word[y]
            ix, iy = wx & 0xFFFFFFFF, wy & 0xFFFFFFFF
            i = ((ix ^ iy) | 1).bit_length() - 1
            common = ((wx >> 32) & (wy >> 32)) >> i << i
            below = (common & -common) - 1
            ax, ay = (wx >> 32) & below, (wy >> 32) & below
            # An endpoint with no ascendant level below j is on the LCA's
            # inlabel path; else climb to the parent of the head of path k.
            if ax:
                k = ax.bit_length() - 1
                bx = head_key[(ix >> k | 1) << k]
            else:
                bx = key[x]
            if ay:
                k = ay.bit_length() - 1
                by = head_key[(iy >> k | 1) << k]
            else:
                by = key[y]
            out[j] = (bx if bx < by else by) & 0xFFFFFFFF
        return out


def build_smallbatch(index: InlabelIndex, *,
                     ctx: Optional[ExecutionContext] = None) -> CompiledKernel:
    """Pin ``index``'s tables in hot-loop layout (one set per artifact).

    The modeled preprocessing charge matches the sequential CPU baseline
    (:class:`~repro.lca.SequentialInlabelLCA`) — same logical work.
    """
    structure = index.structure
    charge_sequential_build(structure.n, ctx, "smallbatch_inlabel_preprocess")
    return _SmallBatchKernel(structure)


#: Artifact variant → the function that builds it over a tree's host index.
ARTIFACT_BUILDERS: Dict[str, Callable[..., Any]] = {
    "parallel": InlabelLCA.from_index,
    "sequential": SequentialInlabelLCA.from_index,
    "smallbatch": build_smallbatch,
}
