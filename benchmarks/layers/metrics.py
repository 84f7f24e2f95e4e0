"""The benchmark's metric registry and its two statistics helpers.

Every metric the benchmark reports is declared here once — name, unit,
direction, and (for end-to-end metrics) the bound by which it may get worse
before a change counts as a regression.  ``BENCHMARK.json`` at the repo root
mirrors :data:`END_TO_END` and :func:`per_layer_metrics`; the harness test
keeps the two in step.

``exact`` marks a metric that must repeat bit-for-bit for the same commit and
seed (counts, and everything derived from the simulated clock).  ``--agree``
compares those with ``==`` and everything else with a ratio.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "LAYERS",
    "Metric",
    "by_name",
    "per_layer_metrics",
    "spread",
    "worse_by",
]


@dataclass(frozen=True)
class Metric:
    """One reported number: what it is called and how to compare it."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # end-to-end only
    exact: bool = False


#: What a user of the system sees, on every workload.  Bounds are shares of
#: the parent's median, sized to what a shared 2-core box resolves in a
#: 10-second run (README: noise floor): run-to-run IQR/median of the
#: yardstick-scaled ``items_per_s`` was 0.04-0.11 there, of ``setup_s``
#: 0.07-0.11, of ``peak_rss_mb`` up to 0.05.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("items_per_s", "items/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.20),
)

#: Layer = module under ``repro`` (``trace.TARGETS`` lists the callables
#: wrapped for each).  ``driver`` is the benchmark's own loop: the root span
#: of a pass, whose self time is what no named layer accounts for.
LAYERS: Tuple[str, ...] = (
    "graphs.trees",
    "graphs.components",
    "euler.dcel",
    "euler.tour",
    "euler.stats",
    "primitives.sort",
    "primitives.listrank",
    "primitives.scan",
    "primitives.reduce",
    "primitives.rmq",
    "lca.inlabel.build",
    "bridges.spanning",
    "bridges.tarjan_vishkin",
    "lca.inlabel.query",
    "backends",
    "lca.dedup",
    "device.context",
    "service.cluster",
    "service.routing",
    "service.service",
    "service.validate",
    "service.scheduler",
    "service.cache",
    "service.dispatch",
    "service.registry",
    "service.stats",
    "service.read",
    "workloads.gen",
    "driver",
)

#: Counts and simulated-clock quantities (exact), then host-time extras.
_EXTRA: Tuple[Metric, ...] = (
    Metric("scheduler.batches", "count", "lower", exact=True),
    Metric("scheduler.mean_batch", "queries", "higher", exact=True),
    Metric("kernel.calls", "count", "lower", exact=True),
    Metric("cache.lookups", "count", "lower", exact=True),
    Metric("cache.hit_rate", "ratio", "higher", exact=True),
    Metric("cache.dedup_factor", "ratio", "higher", exact=True),
    Metric("registry.hit_rate", "ratio", "higher", exact=True),
    Metric("cluster.shed", "count", "lower", exact=True),
    Metric("cluster.load_imbalance", "ratio", "lower", exact=True),
    Metric("modeled.qps", "1/s_modeled", "higher", exact=True),
    Metric("modeled.p50_us", "us_modeled", "lower", exact=True),
    Metric("modeled.p99_us", "us_modeled", "lower", exact=True),
    Metric("modeled.device_s", "s_modeled", "lower", exact=True),
    Metric("pass.items", "items", "higher", exact=True),
    Metric("kernel.us_per_call", "us", "lower"),
    Metric("kernel.ns_per_query.b1024", "ns", "lower"),
    Metric("kernel.ns_per_query.b65536", "ns", "lower"),
    Metric("kernel.ns_per_query.b1048576", "ns", "lower"),
    Metric("frontdoor.block_ms_p50", "ms", "lower"),
    Metric("frontdoor.block_ms_p99", "ms", "lower"),
    Metric("frontdoor.blocks", "count", "higher"),
    Metric("serve.realtime_ratio", "ratio", "higher"),
    Metric("raw.items_per_s", "items/s", "higher"),
    Metric("yardstick.speed", "ratio", "higher"),
    Metric("pass.untraced_s", "s", "lower"),
    Metric("pass.traced_s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
    Metric("trace.attributed", "ratio", "higher"),
)


def per_layer_metrics() -> Tuple[Metric, ...]:
    """Every per-layer metric: three per layer, then the extras."""
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower", exact=True))
        out.append(Metric(f"{layer}.share", "ratio", "lower"))
    return tuple(out) + _EXTRA


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (``None`` under 2 values).

    The same rule the acceptance driver applies across runs
    (``statistics.quantiles(values, n=4)``), applied here across the passes of
    one run so every host-time number is printed next to its own noise.

    >>> spread([1.0, 2.0, 3.0, 4.0, 5.0])
    1.0
    >>> spread([7.0]) is None
    True
    """
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive means worse in the metric's own direction, negative better.

    >>> worse_by(Metric("t", "s", "lower"), 2.0, 2.5)
    0.25
    >>> worse_by(Metric("r", "1/s", "higher"), 100.0, 90.0)
    0.1
    """
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def by_name() -> Dict[str, Metric]:
    """All metrics keyed by name."""
    return {m.name: m for m in END_TO_END + per_layer_metrics()}
