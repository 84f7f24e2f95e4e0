"""A fixed-bucket histogram and its quantile estimator.

The controller folds each control window's latencies into a fresh
:class:`Histogram` with one ``searchsorted`` + ``bincount`` pass
(:meth:`Histogram.observe_many`) and reads the window p99 with
:func:`histogram_quantile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ServiceError

__all__ = ["Histogram", "HistogramValue", "histogram_quantile"]


@dataclass(frozen=True)
class HistogramValue:
    """A histogram's state: per-bucket counts, sum and count.

    ``bucket_counts`` has one entry per finite bucket bound plus a final
    overflow bucket; counts are per-bucket, not cumulative.
    """

    bucket_counts: Tuple[int, ...]
    sum: float
    count: int


class Histogram:
    """A fixed-bucket histogram with vectorized bulk observation.

    ``buckets`` are ascending upper bounds (``le`` semantics); an implicit
    overflow bucket catches everything beyond the last bound.
    """

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        if not buckets:
            raise ServiceError("a histogram needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ServiceError("histogram buckets must be strictly ascending")
        self._bounds = np.asarray(bounds, dtype=np.float64)
        self._counts = np.zeros(self._bounds.size + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe_many(self, values: np.ndarray) -> None:
        """Fold a whole array of observations in, vectorized.

        One ``searchsorted`` finds every value's bucket, one ``bincount``
        accumulates them — equivalent to observing each value singly.

        >>> h = Histogram(buckets=(1.0, 2.0))
        >>> h.observe_many(np.array([0.5, 1.5, 9.0]))
        >>> h.value().bucket_counts
        (1, 1, 1)
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        idx = np.searchsorted(self._bounds, values, side="left")
        self._counts += np.bincount(idx, minlength=self._bounds.size + 1)
        self._sum += float(values.sum())
        self._count += int(values.size)

    def value(self) -> HistogramValue:
        """Current state (all-zero before any observation)."""
        return HistogramValue(
            bucket_counts=tuple(int(c) for c in self._counts),
            sum=self._sum,
            count=self._count,
        )


def histogram_quantile(
    value: HistogramValue, q: float, *, buckets: Tuple[float, ...]
) -> float:
    """Estimate the ``q``-quantile of a :class:`HistogramValue`.

    The Prometheus ``histogram_quantile`` estimator: find the bucket where
    the cumulative count first reaches ``q * count`` and interpolate
    linearly within it (the first bucket interpolates from zero; the
    overflow bucket clamps to the last finite bound, which is all a
    fixed-bucket histogram can say about its tail).  The estimate is
    bucket-resolution coarse by construction — callers compare it against
    bounds, they do not report it as a measured latency.

    >>> h = Histogram(buckets=(1.0, 2.0, 4.0))
    >>> h.observe_many([0.5, 1.5, 1.5, 3.0])
    >>> histogram_quantile(h.value(), 0.5, buckets=(1.0, 2.0, 4.0))
    1.5
    """
    if not 0.0 < q <= 1.0:
        raise ServiceError("quantile q must be in (0, 1]")
    if value.count <= 0:
        return 0.0
    rank = q * value.count
    cumulative = 0
    for i, n in enumerate(value.bucket_counts):
        if n == 0:
            continue
        lo = buckets[i - 1] if 0 < i <= len(buckets) else 0.0
        if cumulative + n >= rank:
            if i >= len(buckets):  # overflow bucket: clamp to last bound
                return float(buckets[-1])
            hi = buckets[i]
            return float(lo + (hi - lo) * (rank - cumulative) / n)
        cumulative += n
    return float(buckets[-1])
