"""Derived trace analyses: latency decomposition and tail attribution.

The recorder (:mod:`repro.obs.events`) stores *what happened*; this module
answers the questions operators actually ask of a trace:

* :func:`query_breakdown` — every answered query's modeled latency split
  into queue wait (batching), lane wait (backend occupancy) and service
  time, exactly summing to the recorded latency;
* :func:`batch_spans` — every batch's flush → start → end lifecycle with
  its lane, trigger, size and the dispatcher's predicted cost;
* :func:`dispatch_error` — predicted vs charged batch cost, the signal a
  future SLO-aware tuner would train on;
* :func:`replica_utilization` — per-(replica, lane) busy fractions;
* :func:`tail_attribution` — the headline table: for each of the worst
  queries, *where* the time went and *which batch it queued behind*.

``python -m repro.obs.report`` runs a scenario replay with tracing on and
prints all of the above, writing a Perfetto-loadable Chrome trace next to
it — a one-command worked example of the whole subsystem.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .events import (
    EV_ARRIVAL,
    EV_CACHE_LANE_HIT,
    EV_COMPLETE,
    EV_DISPATCH,
    EV_FLUSH,
    EV_KERNEL_END,
    EV_KERNEL_START,
    TraceTable,
)

__all__ = [
    "BatchSpan",
    "QueryBreakdown",
    "DispatchError",
    "ReplicaUtilization",
    "BackendUsage",
    "batch_spans",
    "query_breakdown",
    "dispatch_error",
    "replica_utilization",
    "backend_breakdown",
    "backend_table",
    "tail_attribution",
    "decomposition_summary",
    "main",
]


@dataclass(frozen=True)
class BatchSpan:
    """One batch's lifecycle joined across its flush/dispatch/kernel events."""

    batch: int
    replica: int
    lane: str
    trigger: str
    size: int
    flush_s: float
    start_s: float
    end_s: float
    #: Dispatcher-predicted modeled seconds (NaN when no dispatch event —
    #: cache-lane batches are never dispatched).
    predicted_s: float

    @property
    def service_s(self) -> float:
        """Time the batch occupied its lane."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class QueryBreakdown:
    """Columnar per-query latency decomposition.

    For every answered query: ``latency_s`` equals
    ``queue_wait_s + lane_wait_s + service_s`` *exactly* (the service
    component absorbs the float-rounding residual).  Queue wait is the
    batching delay (zero for front-door cache hits), lane wait the time
    the formed batch spent waiting for its backend, service the batch
    execution (or cache probe) itself.
    """

    ticket: np.ndarray
    arrival_s: np.ndarray
    completion_s: np.ndarray
    latency_s: np.ndarray
    queue_wait_s: np.ndarray
    lane_wait_s: np.ndarray
    service_s: np.ndarray
    batch: np.ndarray
    replica: np.ndarray
    #: True where the query was answered on the front-door cache lane.
    cache_lane: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of answered queries in the breakdown."""
        return int(self.ticket.size)


@dataclass(frozen=True)
class DispatchError:
    """Predicted vs charged batch cost, over every dispatched batch.

    The prediction prices the kernel work of the batch's (possibly
    deduplicated) queries; the charge additionally includes the modeled
    cache-probe and any index-build time, so a positive bias is expected
    on cold caches.
    """

    n_batches: int
    mean_predicted_s: float
    mean_charged_s: float
    #: Mean of ``|charged - predicted| / charged``.
    mean_abs_rel_error: float
    #: ``sum(charged) / sum(predicted)``.
    bias: float


@dataclass(frozen=True)
class ReplicaUtilization:
    """Busy fraction of one (replica, lane) pair over the trace span."""

    replica: int
    lane: str
    busy_s: float
    span_s: float
    utilization: float


def batch_spans(table: TraceTable) -> List[BatchSpan]:
    """Join each batch's flush/dispatch/kernel events into one span."""
    flush: Dict[int, Tuple[float, float, str]] = {}
    predicted: Dict[int, float] = {}
    spans: List[BatchSpan] = []
    starts: Dict[int, Tuple[float, str, int, float]] = {}
    ends: Dict[int, float] = {}
    for i in range(table.n_events):
        kind = int(table.kind[i])
        batch = int(table.batch[i])
        if batch < 0:
            continue
        if kind == EV_FLUSH:
            flush[batch] = (
                float(table.time_s[i]),
                float(table.detail[i]),
                table.label_of(int(table.aux[i])),
            )
        elif kind == EV_DISPATCH:
            predicted[batch] = float(table.detail[i])
        elif kind == EV_KERNEL_START:
            starts[batch] = (
                float(table.time_s[i]),
                table.label_of(int(table.aux[i])),
                int(table.replica[i]),
                float(table.detail[i]),
            )
        elif kind == EV_KERNEL_END:
            ends[batch] = float(table.time_s[i])
    for batch in sorted(starts):
        start_s, lane, replica, service_s = starts[batch]
        flush_s, size, trigger = flush.get(batch, (start_s, 0.0, ""))
        spans.append(
            BatchSpan(
                batch=batch,
                replica=replica,
                lane=lane,
                trigger=trigger,
                size=int(size),
                flush_s=flush_s,
                start_s=start_s,
                end_s=ends.get(batch, start_s + service_s),
                predicted_s=predicted.get(batch, float("nan")),
            )
        )
    return spans


def query_breakdown(table: TraceTable) -> QueryBreakdown:
    """Decompose every answered query's latency from its trace events.

    Requires the trace to contain each answered query's arrival and
    completion (or cache-lane hit) events — true for unsampled traces and
    for sampled ones restricted to the kept tickets.
    """
    arrivals = table.of_kind(EV_ARRIVAL)
    completes = table.of_kind(EV_COMPLETE, EV_CACHE_LANE_HIT)
    # Cluster tickets, but a failover re-admission repeats one on the survivor:
    # join on (ticket, replica), each completion to its own replica's arrival.
    n_rep = 1 + max(
        int(table.replica.max(initial=0)), 0
    )
    arr_keys = arrivals.ticket * n_rep + arrivals.replica
    cmp_keys = completes.ticket * n_rep + completes.replica
    order = np.argsort(arr_keys, kind="stable")
    arr_keys = arr_keys[order]
    arr_times = arrivals.time_s[order]
    pos = np.searchsorted(arr_keys, cmp_keys)
    pos = np.clip(pos, 0, max(0, arr_keys.size - 1))
    known = (
        arr_keys[pos] == cmp_keys
        if arr_keys.size
        else np.zeros(cmp_keys.size, dtype=bool)
    )
    completes = completes.select(known)
    arrival_s = arr_times[pos[known]] if arr_keys.size else np.empty(0)

    spans = batch_spans(table)
    max_batch = int(completes.batch.max()) if completes.n_events else -1
    flush_of = np.full(max_batch + 1, np.nan)
    start_of = np.full(max_batch + 1, np.nan)
    for span in spans:
        if span.batch <= max_batch:
            flush_of[span.batch] = span.flush_s
            start_of[span.batch] = span.start_s

    latency = completes.detail.astype(np.float64)
    batch = completes.batch
    cache_lane = completes.kind == EV_CACHE_LANE_HIT
    b_flush = flush_of[batch]
    b_start = start_of[batch]
    # Queue wait: arrival -> flush for batched queries, zero for front-door
    # hits (they never queue for a batch).  Lane wait: flush -> lane start.
    # Service absorbs the remainder so the three parts sum exactly.
    queue_wait = np.where(cache_lane, 0.0, b_flush - arrival_s)
    lane_wait = b_start - b_flush
    missing = np.isnan(b_flush)
    queue_wait = np.where(missing, 0.0, queue_wait)
    lane_wait = np.where(missing, 0.0, lane_wait)
    service = latency - queue_wait - lane_wait
    return QueryBreakdown(
        ticket=completes.ticket,
        arrival_s=arrival_s,
        completion_s=completes.time_s,
        latency_s=latency,
        queue_wait_s=queue_wait,
        lane_wait_s=lane_wait,
        service_s=service,
        batch=batch,
        replica=completes.replica,
        cache_lane=cache_lane,
    )


def dispatch_error(table: TraceTable) -> DispatchError:
    """Predicted-vs-charged cost error over every dispatched batch."""
    predicted: List[float] = []
    charged: List[float] = []
    for span in batch_spans(table):
        if np.isnan(span.predicted_s):
            continue
        predicted.append(span.predicted_s)
        charged.append(span.service_s)
    if not predicted:
        return DispatchError(0, 0.0, 0.0, 0.0, 1.0)
    p = np.asarray(predicted)
    c = np.asarray(charged)
    safe = np.where(c > 0, c, 1.0)
    return DispatchError(
        n_batches=int(p.size),
        mean_predicted_s=float(p.mean()),
        mean_charged_s=float(c.mean()),
        mean_abs_rel_error=float((np.abs(c - p) / safe).mean()),
        bias=float(c.sum() / p.sum()) if p.sum() > 0 else 1.0,
    )


def replica_utilization(table: TraceTable) -> List[ReplicaUtilization]:
    """Busy fraction of each (replica, lane) pair over the trace span."""
    spans = batch_spans(table)
    if not spans or table.n_events == 0:
        return []
    t0 = float(table.time_s.min())
    t1 = float(table.time_s.max())
    span_s = max(t1 - t0, 0.0)
    busy: Dict[Tuple[int, str], float] = {}
    for span in spans:
        key = (span.replica, span.lane)
        busy[key] = busy.get(key, 0.0) + span.service_s
    return [
        ReplicaUtilization(
            replica=replica,
            lane=lane,
            busy_s=b,
            span_s=span_s,
            utilization=b / span_s if span_s > 0 else 0.0,
        )
        for (replica, lane), b in sorted(busy.items())
    ]


def decomposition_summary(breakdown: QueryBreakdown) -> str:
    """Aggregate the per-query decomposition into an aligned text block."""
    if breakdown.n_queries == 0:
        return "latency decomposition : no answered queries in trace"
    total = float(breakdown.latency_s.sum())
    lines = [
        f"latency decomposition over {breakdown.n_queries} answered queries "
        f"({int(breakdown.cache_lane.sum())} on the cache lane):",
        f"  {'component':<12} {'mean us':>10} {'p50 us':>10} {'p99 us':>10} "
        f"{'share':>7}",
    ]
    parts = (
        ("queue", breakdown.queue_wait_s),
        ("lane wait", breakdown.lane_wait_s),
        ("service", breakdown.service_s),
        ("total", breakdown.latency_s),
    )
    for name, values in parts:
        p50, p99 = np.percentile(values, [50.0, 99.0])
        share = float(values.sum()) / total if total > 0 else 0.0
        lines.append(
            f"  {name:<12} {values.mean() * 1e6:>10.2f} {p50 * 1e6:>10.2f} "
            f"{p99 * 1e6:>10.2f} {share:>6.1%}"
        )
    return "\n".join(lines)


def _blocking_batch(
    span: BatchSpan, by_lane: Dict[Tuple[int, str], List[BatchSpan]]
) -> Optional[BatchSpan]:
    """The batch ``span`` queued behind on its lane, if it waited at all."""
    lane_spans = by_lane.get((span.replica, span.lane), [])
    best: Optional[BatchSpan] = None
    for other in lane_spans:
        if other.batch == span.batch or other.start_s >= span.start_s:
            continue
        if other.end_s > span.flush_s and (
            best is None or other.end_s > best.end_s
        ):
            best = other
    return best


def tail_attribution(
    table: TraceTable, *, quantile: float = 0.99, worst: int = 10
) -> str:
    """The tail table: where each of the worst queries' time went.

    One row per query at or beyond the ``quantile`` latency threshold
    (worst first, capped at ``worst`` rows), decomposed into queue / lane
    wait / service, and attributed to the batch it was served in — plus
    the batch it *queued behind* when lane occupancy dominated.
    """
    breakdown = query_breakdown(table)
    if breakdown.n_queries == 0:
        return "tail attribution      : no answered queries in trace"
    threshold = float(np.percentile(breakdown.latency_s, quantile * 100.0))
    tail = np.flatnonzero(breakdown.latency_s >= threshold)
    tail = tail[np.argsort(-breakdown.latency_s[tail], kind="stable")][:worst]
    spans = {span.batch: span for span in batch_spans(table)}
    by_lane: Dict[Tuple[int, str], List[BatchSpan]] = {}
    for span in spans.values():
        by_lane.setdefault((span.replica, span.lane), []).append(span)
    lines = [
        f"p{quantile * 100:g} latency {threshold * 1e6:.2f} us over "
        f"{breakdown.n_queries} answered queries; worst {tail.size}:",
        f"  {'ticket':>8} {'rep':>3} {'latency us':>11} {'queue us':>9} "
        f"{'lane us':>8} {'svc us':>8}  {'served in':<24} {'behind':<24}",
    ]
    for i in tail:
        batch_id = int(breakdown.batch[i])
        span = spans.get(batch_id)
        if span is not None:
            served = (
                f"batch {span.batch} ({span.size}q {span.lane}"
                f"{'/' + span.trigger if span.trigger else ''})"
            )
            blocker = _blocking_batch(span, by_lane)
            behind = (
                f"batch {blocker.batch} ({blocker.size}q {blocker.lane})"
                if blocker is not None
                else "-"
            )
        else:
            served, behind = "-", "-"
        lines.append(
            f"  {int(breakdown.ticket[i]):>8} {int(breakdown.replica[i]):>3} "
            f"{breakdown.latency_s[i] * 1e6:>11.2f} "
            f"{breakdown.queue_wait_s[i] * 1e6:>9.2f} "
            f"{breakdown.lane_wait_s[i] * 1e6:>8.2f} "
            f"{breakdown.service_s[i] * 1e6:>8.2f}  {served:<24} {behind:<24}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class BackendUsage:
    """One backend lane's share of the serving work, cluster-wide.

    ``lane`` is the backend key the batches were dispatched to (or the
    ``"cache"`` lane); latency percentiles are over the queries whose
    answering batch ran on this lane.
    """

    lane: str
    batches: int
    queries: int
    busy_s: float
    p50_latency_s: float
    p99_latency_s: float


def backend_breakdown(table: TraceTable) -> List[BackendUsage]:
    """Per-backend serving breakdown: who answered what, and how slowly.

    The dispatch satellite of the backends work: with several real kernel
    backends live, tail attribution needs to say *which backend* a slow
    query was served by, not just which replica.  Joins every batch span's
    lane onto the per-query latency decomposition; rows are sorted by
    descending query count.
    """
    spans = batch_spans(table)
    if not spans:
        return []
    lane_of_batch: Dict[int, str] = {s.batch: s.lane for s in spans}
    batches: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    for span in spans:
        batches[span.lane] = batches.get(span.lane, 0) + 1
        busy[span.lane] = busy.get(span.lane, 0.0) + span.service_s
    breakdown = query_breakdown(table)
    lat_by_lane: Dict[str, List[float]] = {}
    for i in range(breakdown.n_queries):
        if bool(breakdown.cache_lane[i]):
            lane = "cache"
        else:
            lane = lane_of_batch.get(int(breakdown.batch[i]), "")
        if not lane:
            continue
        lat_by_lane.setdefault(lane, []).append(float(breakdown.latency_s[i]))
    rows = []
    for lane in sorted(batches, key=lambda k: -len(lat_by_lane.get(k, []))):
        lats = np.asarray(lat_by_lane.get(lane, []), dtype=np.float64)
        rows.append(
            BackendUsage(
                lane=lane,
                batches=batches[lane],
                queries=int(lats.size),
                busy_s=busy[lane],
                p50_latency_s=(float(np.percentile(lats, 50))
                               if lats.size else float("nan")),
                p99_latency_s=(float(np.percentile(lats, 99))
                               if lats.size else float("nan")),
            )
        )
    return rows


def backend_table(table: TraceTable) -> str:
    """Per-backend serving breakdown as an aligned text block."""
    rows = backend_breakdown(table)
    if not rows:
        return "backend breakdown     : no batch spans in trace"
    lines = [
        "backend breakdown (which backend answered what):",
        f"  {'lane':<12} {'batches':>8} {'queries':>9} {'busy ms':>10} "
        f"{'p50 us':>9} {'p99 us':>9}",
    ]
    for row in rows:
        lines.append(
            f"  {row.lane:<12} {row.batches:>8} {row.queries:>9} "
            f"{row.busy_s * 1e3:>10.3f} {row.p50_latency_s * 1e6:>9.2f} "
            f"{row.p99_latency_s * 1e6:>9.2f}"
        )
    return "\n".join(lines)


def utilization_table(table: TraceTable) -> str:
    """Per-(replica, lane) busy fractions as an aligned text block."""
    rows = replica_utilization(table)
    if not rows:
        return "replica utilization   : no batch spans in trace"
    lines = [
        "replica utilization over the trace span:",
        f"  {'replica':>7} {'lane':<8} {'busy ms':>10} {'util':>7}",
    ]
    for row in rows:
        lines.append(
            f"  {row.replica:>7} {row.lane:<8} {row.busy_s * 1e3:>10.3f} "
            f"{row.utilization:>6.1%}"
        )
    return "\n".join(lines)


def dispatch_error_summary(table: TraceTable) -> str:
    """The dispatcher's prediction error as a short text block."""
    err = dispatch_error(table)
    if err.n_batches == 0:
        return "dispatch accuracy     : no dispatched batches in trace"
    return (
        f"dispatch accuracy over {err.n_batches} dispatched batches: "
        f"predicted {err.mean_predicted_s * 1e6:.2f} us mean vs charged "
        f"{err.mean_charged_s * 1e6:.2f} us mean "
        f"(abs rel err {err.mean_abs_rel_error:.1%}, "
        f"charged/predicted {err.bias:.2f}x)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Replay a scenario with tracing on; print and export the analyses."""
    from ..service import (
        ClusterConfig,
        ClusterService,
        LCAQueryService,
        ServiceConfig,
    )
    from ..workloads import make_scenario
    from ..workloads.replay import replay
    from .events import TraceRecorder
    from .export import chrome_trace_events, write_chrome_trace, write_events_jsonl

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Replay a named scenario with end-to-end tracing and print the "
            "latency decomposition, tail attribution, utilization and "
            "dispatch-accuracy reports (writing a Perfetto-loadable Chrome "
            "trace alongside)."
        ),
    )
    parser.add_argument("--scenario", default="flash-crowd")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--max-pending", type=int, default=8192)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sample", type=int, default=1, help="keep 1-in-N per-query events"
    )
    parser.add_argument(
        "--answer-cache-kib",
        type=int,
        default=0,
        help="per-cluster answer-cache budget (0 disables the cache)",
    )
    parser.add_argument("--out", default="results/obs")
    parser.add_argument(
        "--jsonl", action="store_true", help="also dump the raw events as JSONL"
    )
    args = parser.parse_args(argv)

    cache_bytes = args.answer_cache_kib * 1024 or None
    recorder = TraceRecorder(sample=args.sample)
    target: object
    if args.replicas > 1:
        target = ClusterService(
            config=ClusterConfig(
                n_replicas=args.replicas,
                max_batch_size=256,
                max_wait_s=2e-4,
                max_pending=args.max_pending,
                answer_cache_bytes=cache_bytes,
            )
        )
    else:
        target = LCAQueryService(
            config=ServiceConfig(
                max_batch_size=256, max_wait_s=2e-4, answer_cache_bytes=cache_bytes
            )
        )
    scenario = make_scenario(args.scenario, scale=args.scale, seed=args.seed)
    report = replay(target, scenario, observer=recorder)  # type: ignore[arg-type]
    table = recorder.table()

    print(report.format())
    print()
    print(decomposition_summary(query_breakdown(table)))
    print()
    print(tail_attribution(table))
    print()
    print(utilization_table(table))
    print()
    print(backend_table(table))
    print()
    print(dispatch_error_summary(table))

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, f"trace_{scenario.name}.json")
    n = write_chrome_trace(trace_path, chrome_trace_events(table))
    print()
    print(
        f"chrome trace          : {trace_path} ({n} events; load in "
        f"https://ui.perfetto.dev)"
    )
    if args.jsonl:
        jsonl_path = os.path.join(args.out, f"events_{scenario.name}.jsonl")
        rows = write_events_jsonl(jsonl_path, table)
        print(f"event dump            : {jsonl_path} ({rows} rows)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    raise SystemExit(main())
