"""Observability surface of the query service.

A serving system is judged by its operational envelope, not by any single
request: sustained throughput, tail latency, how well the cache converts
repeat traffic into hits, and what batch sizes the scheduler actually manages
to form under the offered load.  :class:`StatsCollector` accumulates those
signals as batches complete; :meth:`ServiceStats.merge` folds one or many
into an immutable :class:`ServiceStats` record that experiment runners and
benchmarks can put straight into a report table.

All times are *modeled* times on the simulated devices and the simulated
clock — deterministic, so stats assertions in tests are exact.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import (
    TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Type, TypeVar, Union,
)

import numpy as np

from .tickets import grow_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .cache import AnswerCache
    from .registry import IndexRegistry

__all__ = ["ServiceStats", "StatsCollector", "batch_size_bucket",
           "dedup_factor", "hit_rate"]
_Stats = TypeVar("_Stats", bound="ServiceStats")


def dedup_factor(answered: int, kernel_queries: int) -> float:
    """Answered queries per kernel-executed query (the shared convention).

    1.0 before any answer (or with the skew path off and nothing served),
    ``inf`` when every answer came from a cache.
    """
    if kernel_queries:
        return answered / kernel_queries
    return float("inf") if answered else 1.0


def hit_rate(hits: int, misses: int) -> float:
    """Hits over lookups, 0.0 before the first lookup (shared convention)."""
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def batch_size_bucket(size: int) -> int:
    """The power-of-two histogram bucket (its lower bound) for a batch size."""
    if size < 1:
        raise ValueError("batch size must be at least 1")
    return 1 << (int(size).bit_length() - 1)


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of a service's accumulated behaviour."""

    #: Queries submitted / answered so far (they differ by what is queued).
    queries_submitted: int
    queries_answered: int
    #: Queries actually executed on a backend kernel.  With the skew-aware
    #: path on this counts only the unique cache-miss pairs of each batch;
    #: with it off it equals ``queries_answered``.
    kernel_queries: int
    #: ``queries_answered / kernel_queries`` — how many answered queries each
    #: kernel-executed query amortized (1.0 with the skew path off; ``inf``
    #: when every answer came from the cache).
    dedup_factor: float
    #: Batches executed, and the distribution of their sizes in power-of-two
    #: buckets (bucket lower bound → count).
    batches_flushed: int
    mean_batch_size: float
    batch_size_histogram: Dict[int, int]
    #: Why batches flushed: counts for "size", "wait" and "drain" triggers,
    #: plus "hit" for front-door answer-cache batches (answered at
    #: admission, never queued).
    flush_triggers: Dict[str, int]
    #: How often each backend was chosen, keyed by backend key.
    backend_choices: Dict[str, int]
    #: Modeled end-to-end latency (batching wait + backend queueing + index
    #: build on a cold cache + batch execution) over all answered queries.
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    latency_max_s: float
    #: Modeled time backends spent executing batches (including index builds).
    busy_time_s: float
    #: Simulated span from the first arrival to the last completion.
    span_s: float
    #: Index-cache accounting, mirrored from the registry.
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_hit_rate: float
    cache_bytes_in_use: int
    #: Answer-cache accounting (the per-pair result cache of the skew-aware
    #: fast path; all zero when the cache is disabled).
    answer_cache_hits: int
    answer_cache_misses: int
    answer_cache_hit_rate: float
    answer_cache_bytes: int
    answer_cache_resets: int

    @classmethod
    def merge(cls: Type[_Stats], workers: Sequence[Tuple[
            StatsCollector, Optional[IndexRegistry], Optional[AnswerCache]]],
              **fields: Any) -> _Stats:
        """Fold each worker's (collector, index registry or ``None``, answer
        cache or ``None``) into one snapshot: counts summed in worker order,
        latency statistics exact over every worker's latencies.  ``fields``
        sets a subclass's own fields or overrides a merged one.
        """
        collectors = [collector for collector, _, _ in workers]
        registries = [registry for _, registry, _ in workers if registry is not None]
        caches = [cache for _, _, cache in workers if cache is not None]
        views = [c.latency_values for c in collectors if c.latency_values.size]
        # A lone view is read as-is; no latency at all reads as one zero.
        lat = views[0] if len(views) == 1 else np.concatenate(views or [np.zeros(1)])
        p50, p99 = np.percentile(lat, [50.0, 99.0]).tolist()
        empty: Counter = Counter()
        histogram: Counter = Counter()
        for size, n in sum((c.batch_sizes for c in collectors), empty).items():
            histogram[batch_size_bucket(size)] += n
        answered = sum(c.queries_answered for c in collectors)
        kernel_queries = sum(c.kernel_queries for c in collectors)
        batches = sum(c.batches_flushed for c in collectors)
        hits = sum(r.hits for r in registries)
        misses = sum(r.misses for r in registries)
        answer_hits = sum(a.hits for a in caches)
        answer_misses = sum(a.misses for a in caches)
        merged: Dict[str, Any] = dict(
            queries_submitted=sum(c.queries_submitted for c in collectors),
            queries_answered=answered,
            kernel_queries=kernel_queries,
            dedup_factor=dedup_factor(answered, kernel_queries),
            batches_flushed=batches,
            mean_batch_size=answered / batches if batches else 0.0,
            batch_size_histogram=dict(histogram),
            flush_triggers=dict(sum((c.flush_triggers for c in collectors), empty)),
            backend_choices=dict(sum((c.backend_choices for c in collectors), empty)),
            latency_mean_s=float(lat.mean()),
            latency_p50_s=p50,
            latency_p99_s=p99,
            latency_max_s=float(lat.max()),
            busy_time_s=sum(c.busy_time_s for c in collectors),
            span_s=(max(c.last_completion_s for c in collectors)
                    - min(c.first_arrival_s for c in collectors)) if batches else 0.0,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=sum(r.evictions for r in registries),
            cache_hit_rate=hit_rate(hits, misses),
            cache_bytes_in_use=sum(r.bytes_in_use for r in registries),
            answer_cache_hits=answer_hits,
            answer_cache_misses=answer_misses,
            answer_cache_hit_rate=hit_rate(answer_hits, answer_misses),
            answer_cache_bytes=sum(a.nbytes for a in caches),
            answer_cache_resets=sum(a.resets for a in caches),
        )
        return cls(**{**merged, **fields})

    @property
    def throughput_qps(self) -> float:
        """Answered queries per second of simulated span."""
        if self.span_s <= 0:
            return float("inf") if self.queries_answered else 0.0
        return self.queries_answered / self.span_s

    def format(self) -> str:
        """Render the snapshot as an aligned text block for reports."""
        hist = " ".join(
            f"[{b}:{c}]" for b, c in sorted(self.batch_size_histogram.items())
        )
        triggers = " ".join(f"{k}={v}" for k, v in sorted(self.flush_triggers.items()))
        backends = " ".join(f"{k}={v}" for k, v in sorted(self.backend_choices.items()))
        lines = [
            f"queries            : {self.queries_answered}/{self.queries_submitted} answered",
            f"batches            : {self.batches_flushed} "
            f"(mean size {self.mean_batch_size:.1f})",
            f"batch histogram    : {hist or '-'}",
            f"flush triggers     : {triggers or '-'}",
            f"backend choices    : {backends or '-'}",
            f"latency p50/p99    : {self.latency_p50_s * 1e6:.2f} / "
            f"{self.latency_p99_s * 1e6:.2f} us (max {self.latency_max_s * 1e6:.2f} us)",
            f"throughput         : {self.throughput_qps:,.0f} queries/s "
            f"over {self.span_s * 1e3:.3f} ms span",
            f"backend busy time  : {self.busy_time_s * 1e3:.3f} ms modeled",
            f"index cache        : {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%}), {self.cache_evictions} evictions, "
            f"{self.cache_bytes_in_use:,} bytes",
            f"answer cache       : {self.answer_cache_hits} hits / "
            f"{self.answer_cache_misses} misses "
            f"({self.answer_cache_hit_rate:.1%}), "
            f"{self.answer_cache_resets} resets, "
            f"{self.answer_cache_bytes:,} bytes; "
            f"dedup factor {self.dedup_factor:.2f}x "
            f"({self.kernel_queries} kernel queries)",
        ]
        return "\n".join(lines)


@dataclass
class StatsCollector:
    """Mutable accumulator the service layer feeds as batches complete."""

    queries_submitted: int = 0
    queries_answered: int = 0
    kernel_queries: int = 0
    batches_flushed: int = 0
    busy_time_s: float = 0.0
    #: Batches per raw size (``ServiceStats.merge`` buckets them).
    batch_sizes: Counter = field(default_factory=Counter)
    flush_triggers: Counter = field(default_factory=Counter)
    backend_choices: Counter = field(default_factory=Counter)
    # Growable flat latency log, in completion order (so not a TicketTable
    # column): batches append with one slice assignment and the percentile
    # computation in ServiceStats.merge reads a single array view (no
    # per-snapshot concatenation of per-batch chunks).
    _latency_table: np.ndarray = field(
        default_factory=lambda: np.empty(1024, dtype=np.float64))
    _latency_count: int = 0
    #: Earliest arrival and latest batch completion (±inf before any batch).
    first_arrival_s: float = float("inf")
    last_completion_s: float = -float("inf")

    @property
    def latency_values(self) -> np.ndarray:
        """View of every recorded per-query latency (in record order).

        :meth:`ServiceStats.merge` concatenates these views across workers
        so a cluster's percentiles are exact, not an approximation stitched
        from per-replica percentiles.
        """
        return self._latency_table[:self._latency_count]

    def record_submit(self, count: int) -> None:
        """Count newly submitted queries."""
        self.queries_submitted += int(count)

    def record_hedge(self, service_time_s: float) -> None:
        """Charge a hedged duplicate execution's backend time.

        A hedge re-runs a straggling batch on a second replica with identical
        answers, so only its backend occupancy is billed (the cost side of
        the tail-latency trade), not answers or latencies.
        """
        self.busy_time_s += float(service_time_s)

    def record_span(self, sizes: Sequence[int], triggers: Sequence[str],
                    lanes: Sequence[str], charges: Sequence[float],
                    latencies_s: Union[float, np.ndarray], first_arrival_s: float,
                    last_completion_s: float, kernel_queries: int) -> None:
        """Fold completed batches, in booking order, into the counters.

        Per batch: its size, flush trigger, backend lane and charge;
        ``latencies_s`` is every query's, batch after batch (or one value they
        all share), from ``first_arrival_s`` to ``last_completion_s``;
        ``kernel_queries`` ran on a backend kernel (the unique misses under
        the skew-aware path).  ``busy_time_s`` adds the charges left to right.
        """
        start, answered = self._latency_count, sum(sizes)
        self.queries_answered += answered
        self.kernel_queries += kernel_queries
        self.batches_flushed += len(sizes)
        self.busy_time_s = reduce(operator.add, charges, self.busy_time_s)
        self.batch_sizes.update(sizes)
        self.flush_triggers.update(triggers)
        self.backend_choices.update(lanes)
        end = self._latency_count = start + answered
        if end > self._latency_table.size:
            self._latency_table = grow_table(self._latency_table, start, end)
        self._latency_table[start:end] = latencies_s
        self.first_arrival_s = min(self.first_arrival_s, first_arrival_s)
        self.last_completion_s = max(self.last_completion_s, last_completion_s)

    def snapshot(self, *, registry: Optional[IndexRegistry] = None,
                 answer_cache: Optional[AnswerCache] = None) -> ServiceStats:
        """The one-worker :meth:`ServiceStats.merge`; an omitted section reads zero."""
        return ServiceStats.merge([(self, registry, answer_cache)])
