"""Online batched LCA querying (paper §3.3, "Batch Size" experiment).

The Inlabel and naïve algorithms are *online*: once a tree is preprocessed,
queries can arrive over time.  A parallel machine, however, only pays off when
it can work on many queries at once, so the paper measures query throughput as
a function of the batch size in which queries are handed to the algorithm.

:func:`run_batched_queries` feeds a query stream to an already-preprocessed
LCA structure batch by batch and accumulates the modeled time; the per-batch
kernel-launch overhead charged by the device model is what makes tiny batches
slow on the GPU and produces the saturation curves of Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..boundary import query_ids
from ..device import DeviceSpec, ExecutionContext
from .dedup import dedup_query_pairs

__all__ = ["BatchQueryResult", "run_batched_queries"]


@dataclass(frozen=True)
class BatchQueryResult:
    """Outcome of replaying a query stream in fixed-size batches."""

    batch_size: int
    num_queries: int
    num_batches: int
    modeled_time_s: float
    answers: np.ndarray
    #: Queries actually handed to the kernel over the processed batches.
    #: Equals the processed query count without dedup; with ``dedup=True``
    #: it counts only each batch's unique canonical pairs, so
    #: ``processed / kernel_queries`` is the realized dedup factor.
    kernel_queries: int = 0

    @property
    def queries_per_second(self) -> float:
        """Modeled query throughput."""
        if self.modeled_time_s <= 0:
            return float("inf")
        return self.num_queries / self.modeled_time_s


def run_batched_queries(algorithm, xs: np.ndarray, ys: np.ndarray, batch_size: int,
                        spec: DeviceSpec, *, keep_answers: bool = True,
                        max_batches: Optional[int] = None,
                        dedup: bool = False) -> BatchQueryResult:
    """Replay a query stream against ``algorithm`` in batches of ``batch_size``.

    Parameters
    ----------
    algorithm:
        A preprocessed LCA structure exposing ``query(xs, ys, ctx=...)``.
    xs, ys:
        The full query stream: two 1-D columns of integer node ids (anything
        else raises :class:`~repro.errors.InvalidQueryError` before a batch
        is charged).
    batch_size:
        Number of queries handed to the algorithm per call.
    spec:
        Device spec used to account the per-batch cost.
    keep_answers:
        Set to False to discard answers (saves memory in large sweeps).
    max_batches:
        Optionally process only the first ``max_batches`` batches and
        extrapolate the modeled time linearly to the full stream — used by the
        Figure 6 sweep where replaying ten million batch-size-1 calls would be
        pointlessly slow in simulation while the per-batch cost is identical.
    dedup:
        Canonicalize each batch's pairs (LCA is symmetric) and hand only the
        unique pairs to the kernel, scattering answers back — the
        intra-batch dedup of :func:`repro.lca.dedup.dedup_query_pairs`.
        Answers are bit-identical; on repeated streams the modeled time
        drops by the realized dedup factor, which lets the Figure 6
        batch-size sweep quantify the dedup win too.
    """
    xs = query_ids(xs)
    ys = query_ids(ys)
    if xs.shape != ys.shape:
        raise ValueError("query arrays must have the same shape")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    q = xs.size
    num_batches = -(-q // batch_size) if q else 0
    ctx = ExecutionContext(spec)
    answers = np.empty(q, dtype=np.int64) if keep_answers else np.empty(0, dtype=np.int64)

    processed_batches = 0
    processed_queries = 0
    kernel_queries = 0
    limit = num_batches if max_batches is None else min(num_batches, max_batches)
    for b in range(limit):
        lo = b * batch_size
        hi = min(lo + batch_size, q)
        if dedup:
            ux, uy, inverse = dedup_query_pairs(xs[lo:hi], ys[lo:hi])
            out = algorithm.query(ux, uy, ctx=ctx)[inverse]
            kernel_queries += int(ux.size)
        else:
            out = algorithm.query(xs[lo:hi], ys[lo:hi], ctx=ctx)
            kernel_queries += hi - lo
        if keep_answers:
            answers[lo:hi] = out
        processed_batches += 1
        processed_queries += hi - lo

    modeled = ctx.elapsed
    if processed_batches < num_batches and processed_queries > 0:
        # Linear extrapolation over the remaining (statistically identical) batches.
        modeled *= q / processed_queries
    return BatchQueryResult(
        batch_size=batch_size,
        num_queries=q,
        num_batches=num_batches,
        modeled_time_s=modeled,
        answers=answers,
        kernel_queries=kernel_queries,
    )
