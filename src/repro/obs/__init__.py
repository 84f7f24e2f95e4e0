"""repro.obs — observability for the serving stack.

Zero-cost-when-disabled tracing and reporting:

* :mod:`repro.obs.events` — columnar :class:`TraceRecorder` capturing the
  full query lifecycle (arrival → enqueue → flush → dispatch → kernel →
  complete) plus cache and index-registry events, with 1-in-N sampling;
* :mod:`repro.obs.metrics` — the fixed-bucket histogram and quantile
  estimator the controller windows latencies with;
* :mod:`repro.obs.export` — JSONL and Perfetto-loadable Chrome trace-event
  exporters;
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
from .export import chrome_trace_events, write_chrome_trace, write_events_jsonl
from .metrics import Histogram

__all__ = [
    "EVENT_NAMES",
    "PER_QUERY_KINDS",
    "TraceRecorder",
    "TraceTable",
    "kind_name",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_events_jsonl",
    "Histogram",
]
