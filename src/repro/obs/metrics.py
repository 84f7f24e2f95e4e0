"""Labeled metric registry: counters, gauges and fixed-bucket histograms.

Prometheus-shaped but in-process and NumPy-backed: a
:class:`MetricRegistry` owns named metrics, each metric owns one time
series per label set, and histograms fold whole arrays of observations in
with one ``searchsorted`` + ``bincount`` pass
(:meth:`Histogram.observe_many`) instead of a Python loop per value.

Snapshots (:meth:`MetricRegistry.snapshot`) are immutable.  A
:class:`Histogram` also stands alone: the controller folds each control
window's latencies into a fresh one and reads its p99 with
:func:`histogram_quantile`.

The adapter at the bottom re-expresses a service's aggregate snapshot
(:class:`~repro.service.stats.ServiceStats`) as metrics, so anything that
can scrape the Prometheus text format (see
:func:`repro.obs.export.prometheus_text`) can watch the simulated stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from ..service.stats import ServiceStats

__all__ = [
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricSnapshot",
    "MetricsSnapshot",
    "MetricRegistry",
    "histogram_quantile",
    "service_stats_metrics",
]

#: Label sets are canonicalized to sorted (name, value) pairs.
LabelPairs = Tuple[Tuple[str, str], ...]

#: Default latency buckets: 1 us .. ~100 ms in half-decade steps.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6,
    3e-6,
    1e-5,
    3e-5,
    1e-4,
    3e-4,
    1e-3,
    3e-3,
    1e-2,
    3e-2,
    1e-1,
)


def _canonical(labels: Mapping[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class HistogramValue:
    """One histogram series' state: per-bucket counts, sum and count.

    ``bucket_counts`` has one entry per finite bucket bound plus a final
    overflow bucket; counts are per-bucket (not cumulative — the exporter
    cumulates for the Prometheus ``le`` convention).
    """

    bucket_counts: Tuple[int, ...]
    sum: float
    count: int


#: A series' value in a snapshot: a float for counters/gauges, a
#: :class:`HistogramValue` for histograms.
SeriesValue = Union[float, HistogramValue]


@dataclass(frozen=True)
class MetricSnapshot:
    """Immutable state of one metric: every series under one name."""

    name: str
    type: str
    help: str
    buckets: Tuple[float, ...]
    series: Tuple[Tuple[LabelPairs, SeriesValue], ...]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable state of a whole registry at one instant."""

    metrics: Tuple[MetricSnapshot, ...]

    def get(self, name: str) -> Optional[MetricSnapshot]:
        """The snapshot of one metric by name (``None`` when absent)."""
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def value(self, name: str, **labels: str) -> SeriesValue:
        """One series' value; raises :class:`ServiceError` when absent."""
        metric = self.get(name)
        if metric is not None:
            wanted = _canonical(labels)
            for pairs, value in metric.series:
                if pairs == wanted:
                    return value
        raise ServiceError(f"no series {name}{dict(labels)} in snapshot")


class Counter:
    """A monotonically increasing labeled metric."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelPairs, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``.

        >>> c = Counter("hits_total", "Cache hits")
        >>> c.inc(2.0, lane="cache")
        >>> c.value(lane="cache")
        2.0
        """
        amount = float(amount)
        if amount < 0:
            raise ServiceError(f"counter {self.name} cannot decrease")
        key = _canonical(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 before the first ``inc``)."""
        return self._series.get(_canonical(labels), 0.0)

    def snapshot(self) -> MetricSnapshot:
        """Freeze every series."""
        return MetricSnapshot(
            name=self.name,
            type="counter",
            help=self.help,
            buckets=(),
            series=tuple(sorted(self._series.items())),
        )


class Gauge:
    """A labeled metric that can move both ways (set to current level)."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelPairs, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the series selected by ``labels`` to ``value``.

        >>> g = Gauge("queue_depth", "Queued queries")
        >>> g.set(7, dataset="t")
        >>> g.value(dataset="t")
        7.0
        """
        self._series[_canonical(labels)] = float(value)

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 before the first ``set``)."""
        return self._series.get(_canonical(labels), 0.0)

    def snapshot(self) -> MetricSnapshot:
        """Freeze every series."""
        return MetricSnapshot(
            name=self.name,
            type="gauge",
            help=self.help,
            buckets=(),
            series=tuple(sorted(self._series.items())),
        )


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = np.zeros(n_buckets, dtype=np.int64)
        self.sum = 0.0
        self.count = 0


class Histogram:
    """A labeled fixed-bucket histogram with vectorized bulk observation.

    ``buckets`` are ascending upper bounds (``le`` semantics); an implicit
    overflow bucket catches everything beyond the last bound.
    """

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Tuple[float, ...] = LATENCY_BUCKETS_S,
    ) -> None:
        if not buckets:
            raise ServiceError(f"histogram {name} needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ServiceError(
                f"histogram {name} buckets must be strictly ascending"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._bounds = np.asarray(bounds, dtype=np.float64)
        self._series: Dict[LabelPairs, _HistogramSeries] = {}

    def _get(self, labels: Mapping[str, str]) -> _HistogramSeries:
        key = _canonical(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(self._bounds.size + 1)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        """Fold one observation in."""
        self.observe_many(np.asarray([value], dtype=np.float64), **labels)

    def observe_many(self, values: np.ndarray, **labels: str) -> None:
        """Fold a whole array of observations in, vectorized.

        One ``searchsorted`` finds every value's bucket, one ``bincount``
        accumulates them — equivalent to observing each value singly.

        >>> h = Histogram("lat", "Latency", buckets=(1.0, 2.0))
        >>> h.observe_many(np.array([0.5, 1.5, 9.0]))
        >>> h.snapshot().series[0][1].bucket_counts
        (1, 1, 1)
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        series = self._get(labels)
        idx = np.searchsorted(self._bounds, values, side="left")
        series.counts += np.bincount(idx, minlength=self._bounds.size + 1)
        series.sum += float(values.sum())
        series.count += int(values.size)

    def value(self, **labels: str) -> HistogramValue:
        """Current state of one series (all-zero before any observation)."""
        series = self._series.get(_canonical(labels))
        if series is None:
            return HistogramValue(
                bucket_counts=(0,) * (self._bounds.size + 1), sum=0.0, count=0
            )
        return HistogramValue(
            bucket_counts=tuple(int(c) for c in series.counts),
            sum=series.sum,
            count=series.count,
        )

    def snapshot(self) -> MetricSnapshot:
        """Freeze every series."""
        series = tuple(
            (
                pairs,
                HistogramValue(
                    bucket_counts=tuple(int(c) for c in s.counts),
                    sum=s.sum,
                    count=s.count,
                ),
            )
            for pairs, s in sorted(self._series.items(), key=lambda kv: kv[0])
        )
        return MetricSnapshot(
            name=self.name,
            type="histogram",
            help=self.help,
            buckets=self.buckets,
            series=series,
        )


#: Any of the three metric kinds a registry can own.
Metric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """Owns named metrics; get-or-create accessors keep call sites terse.

    >>> reg = MetricRegistry()
    >>> reg.counter("batches_total", "Batches flushed").inc()
    >>> reg.counter("batches_total", "Batches flushed").value()
    1.0
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ServiceError(
                    f"metric {metric.name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get (or create) the counter called ``name``."""
        metric = self._register(Counter(name, help))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get (or create) the gauge called ``name``."""
        metric = self._register(Gauge(name, help))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        """Get (or create) the histogram called ``name``."""
        metric = self._register(Histogram(name, help, buckets))
        assert isinstance(metric, Histogram)
        return metric

    @property
    def names(self) -> List[str]:
        """Registered metric names, in registration order."""
        return list(self._metrics)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every metric into an immutable :class:`MetricsSnapshot`."""
        return MetricsSnapshot(
            metrics=tuple(m.snapshot() for m in self._metrics.values())
        )


def histogram_quantile(
    value: HistogramValue,
    q: float,
    *,
    buckets: Tuple[float, ...] = LATENCY_BUCKETS_S,
) -> float:
    """Estimate the ``q``-quantile of a :class:`HistogramValue`.

    The Prometheus ``histogram_quantile`` estimator: find the bucket where
    the cumulative count first reaches ``q * count`` and interpolate
    linearly within it (the first bucket interpolates from zero; the
    overflow bucket clamps to the last finite bound, which is all a
    fixed-bucket histogram can say about its tail).  The estimate is
    bucket-resolution coarse by construction — callers compare it against
    bounds, they do not report it as a measured latency.

    >>> h = Histogram("lat", "demo", buckets=(1.0, 2.0, 4.0))
    >>> h.observe_many([0.5, 1.5, 1.5, 3.0])
    >>> histogram_quantile(h.snapshot().series[0][1], 0.5, buckets=(1.0, 2.0, 4.0))
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


# ----------------------------------------------------------------------
# Adapter: a service's aggregate snapshot re-expressed as metrics
# ----------------------------------------------------------------------
def service_stats_metrics(
    stats: "ServiceStats",
    *,
    registry: Optional[MetricRegistry] = None,
    replica: Optional[int] = None,
) -> MetricRegistry:
    """Re-express one :class:`ServiceStats` snapshot as registry metrics.

    ``replica`` adds a ``replica`` label to every series, so per-worker
    snapshots of a cluster land in the same registry without colliding.
    """
    reg = registry if registry is not None else MetricRegistry()
    labels: Dict[str, str] = {}
    if replica is not None:
        labels["replica"] = str(replica)
    reg.counter(
        "repro_queries_submitted_total", "Queries submitted to the service"
    ).inc(stats.queries_submitted, **labels)
    reg.counter("repro_queries_answered_total", "Queries answered").inc(
        stats.queries_answered, **labels
    )
    reg.counter(
        "repro_kernel_queries_total", "Queries executed on a backend kernel"
    ).inc(stats.kernel_queries, **labels)
    reg.counter("repro_batches_flushed_total", "Batches flushed").inc(
        stats.batches_flushed, **labels
    )
    for trigger, count in sorted(stats.flush_triggers.items()):
        reg.counter(
            "repro_flush_trigger_total", "Batches flushed, by trigger"
        ).inc(count, trigger=trigger, **labels)
    for backend, count in sorted(stats.backend_choices.items()):
        reg.counter(
            "repro_backend_chosen_total", "Batches dispatched, by backend"
        ).inc(count, backend=backend, **labels)
    reg.gauge(
        "repro_latency_p99_seconds", "Modeled p99 end-to-end latency"
    ).set(stats.latency_p99_s, **labels)
    reg.gauge(
        "repro_latency_p50_seconds", "Modeled median end-to-end latency"
    ).set(stats.latency_p50_s, **labels)
    reg.gauge(
        "repro_backend_busy_seconds", "Modeled backend busy time"
    ).set(stats.busy_time_s, **labels)
    reg.counter("repro_index_cache_hits_total", "Index-cache hits").inc(
        stats.cache_hits, **labels
    )
    reg.counter("repro_index_cache_misses_total", "Index-cache misses").inc(
        stats.cache_misses, **labels
    )
    reg.counter(
        "repro_index_cache_evictions_total", "Index-cache evictions"
    ).inc(stats.cache_evictions, **labels)
    reg.counter("repro_answer_cache_hits_total", "Answer-cache hits").inc(
        stats.answer_cache_hits, **labels
    )
    reg.counter("repro_answer_cache_misses_total", "Answer-cache misses").inc(
        stats.answer_cache_misses, **labels
    )
    reg.counter("repro_answer_cache_resets_total", "Answer-cache resets").inc(
        stats.answer_cache_resets, **labels
    )
    return reg
