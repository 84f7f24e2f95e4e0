"""repro.obs — observability for the serving stack.

Zero-cost-when-disabled tracing, metrics and reporting:

* :mod:`repro.obs.events` — columnar :class:`TraceRecorder` capturing the
  full query lifecycle (arrival → enqueue → flush → dispatch → kernel →
  complete) plus cache and index-registry events, with 1-in-N sampling;
* :mod:`repro.obs.metrics` — a labeled metric registry (counters, gauges,
  histograms) with immutable snapshots and an adapter re-expressing
  :class:`~repro.service.stats.ServiceStats` as metric families;
* :mod:`repro.obs.timers` — host wall-clock stage accounting;
* :mod:`repro.obs.export` — JSONL, Prometheus text and Perfetto-loadable
  Chrome trace-event exporters;
* :mod:`repro.obs.report` — latency decomposition, tail attribution and
  the ``python -m repro.obs.report`` CLI (imported lazily: it depends on
  the service layer, which this package deliberately does not).

When no recorder is attached, the serving stack's observability hooks are
single ``is None`` checks — see ``benchmarks/bench_obs_overhead.py`` for
the measured cost.
"""

from .events import (
    EVENT_NAMES,
    PER_QUERY_KINDS,
    TraceRecorder,
    TraceTable,
    kind_name,
)
from .export import (
    chrome_trace_events,
    kernel_records_to_chrome,
    prometheus_text,
    summarize_kernel_records,
    write_chrome_trace,
    write_events_jsonl,
)
from .metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    service_stats_metrics,
)
from .timers import StageTimer

__all__ = [
    "EVENT_NAMES",
    "PER_QUERY_KINDS",
    "TraceRecorder",
    "TraceTable",
    "kind_name",
    "chrome_trace_events",
    "kernel_records_to_chrome",
    "prometheus_text",
    "summarize_kernel_records",
    "write_chrome_trace",
    "write_events_jsonl",
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricsSnapshot",
    "service_stats_metrics",
    "StageTimer",
]
