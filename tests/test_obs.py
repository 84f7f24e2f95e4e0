"""repro.obs units and trace invariants.

Covers the recorder/table layer (journaling, sampling, ownership
transfer, merge/canonical), the metric registry (counters, gauges,
histograms, snapshots), the exporters (JSONL, Prometheus text,
Chrome trace JSON) and the :class:`StageTimer` — plus the acceptance
invariants that tie a live trace back to the serving stack's own
aggregates:

* tracing is deterministic (two identical runs → bit-identical tables);
* a single service and a 1-replica cluster record the same event
  multiset (canonical forms are equal);
* a sampled trace is a strict subset of the full trace of the same run.
"""

import json

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    StageTimer,
    TraceRecorder,
    TraceTable,
    chrome_trace_events,
    kernel_records_to_chrome,
    prometheus_text,
    service_stats_metrics,
    summarize_kernel_records,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.events import (
    EVENT_NAMES,
    EV_ARRIVAL,
    EV_CACHE_LANE_HIT,
    EV_COMPLETE,
    EV_ENQUEUE,
    EV_FLUSH,
    EV_INDEX_EVICT,
    EV_INDEX_LOAD,
    EV_KERNEL_END,
    EV_KERNEL_START,
    PER_QUERY_KINDS,
)
from repro.service import (
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    ServiceConfig,
)
from repro.workloads import make_scenario, replay

POLICY = {"max_batch_size": 64, "max_wait_s": 2e-4}


def traced_run(sample=1, queries=600, nodes=512, seed=0):
    """A small single-service run with a recorder attached throughout."""
    recorder = TraceRecorder(sample=sample)
    service = LCAQueryService(config=ServiceConfig(**POLICY), observer=recorder)
    parents = random_attachment_tree(nodes, seed=seed)
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(nodes, queries, seed=seed + 1)
    arrivals = np.arange(queries, dtype=np.float64) / 1e5
    service.submit_many("t", xs, ys, at=arrivals)
    service.drain()
    return service, recorder


def rowset(table):
    """The table as a set of fully resolved row tuples (order-free)."""
    return {
        (
            float(t),
            int(k),
            int(q),
            int(b),
            int(r),
            float(d),
            table.label_of(int(a)),
        )
        for t, k, q, b, r, d, a in zip(
            table.time_s,
            table.kind,
            table.ticket,
            table.batch,
            table.replica,
            table.detail,
            table.aux,
        )
    }


# ----------------------------------------------------------------------
# Recorder basics
# ----------------------------------------------------------------------
def test_scalar_record_lands_in_columns():
    rec = TraceRecorder()
    code = rec.intern("tree")
    rec.record(EV_ARRIVAL, 0.25, ticket=7, batch=3, replica=2, detail=1.5, aux=code)
    table = rec.table()
    assert table.n_events == len(table) == 1
    assert float(table.time_s[0]) == 0.25
    assert int(table.kind[0]) == EV_ARRIVAL
    assert int(table.ticket[0]) == 7
    assert int(table.batch[0]) == 3
    assert int(table.replica[0]) == 2
    assert float(table.detail[0]) == 1.5
    assert table.label_of(int(table.aux[0])) == "tree"
    assert table.label_code("tree") == code
    assert table.label_code("never") == -1


def test_empty_recorder_freezes_to_typed_empty_columns():
    table = TraceRecorder().table()
    assert table.n_events == 0
    assert table.time_s.dtype == np.float64
    assert table.kind.dtype == np.int16
    assert table.ticket.dtype == np.int64
    assert table.labels == ()


def test_intern_and_batch_ids_are_stable():
    rec = TraceRecorder()
    assert (rec.intern("gpu"), rec.intern("cpu"), rec.intern("gpu")) == (0, 1, 0)
    assert rec.labels == ("gpu", "cpu")
    assert [rec.next_batch_id() for _ in range(3)] == [0, 1, 2]


def test_invalid_sample_rejected():
    with pytest.raises(ServiceError, match="sample"):
        TraceRecorder(sample=0)


def test_table_is_cached_until_next_append():
    rec = TraceRecorder()
    rec.record(EV_FLUSH, 0.0, batch=0)
    first = rec.table()
    assert rec.table() is first
    rec.record(EV_FLUSH, 1.0, batch=1)
    second = rec.table()
    assert second is not first
    # The earlier snapshot is immutable — appends don't grow it.
    assert first.n_events == 1 and second.n_events == 2


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def test_scalar_sampling_keeps_divisible_tickets_and_all_batch_events():
    rec = TraceRecorder(sample=3)
    for ticket in range(7):
        rec.record(EV_COMPLETE, float(ticket), ticket=ticket)
    rec.record(EV_FLUSH, 9.0, batch=0)  # ticket=-1: never sampled out
    table = rec.table()
    assert table.of_kind(EV_COMPLETE).ticket.tolist() == [0, 3, 6]
    assert table.of_kind(EV_FLUSH).n_events == 1


def test_block_sampling_strided_fast_path_matches_predicate():
    tickets = np.arange(37, dtype=np.int64) + 5  # consecutive, offset start
    times = np.linspace(0.0, 1.0, 37)
    details = np.linspace(1.0, 2.0, 37)
    rec = TraceRecorder(sample=4)
    rec.record_block(EV_ENQUEUE, times, tickets, detail=details)
    table = rec.table()
    keep = tickets % 4 == 0
    assert np.array_equal(table.ticket, tickets[keep])
    assert np.array_equal(table.time_s, times[keep])
    assert np.array_equal(table.detail, details[keep])


def test_block_sampling_mask_path_matches_predicate():
    base = np.arange(40, dtype=np.int64)
    tickets = np.concatenate([base[:10], base[25:]])  # gap: not consecutive
    times = np.linspace(0.0, 1.0, tickets.size)
    rec = TraceRecorder(sample=4)
    rec.record_block(EV_ENQUEUE, times, tickets)
    table = rec.table()
    keep = tickets % 4 == 0
    assert np.array_equal(table.ticket, tickets[keep])
    assert np.array_equal(table.time_s, times[keep])


def test_block_sampling_can_drop_everything():
    rec = TraceRecorder(sample=100)
    rec.record_block(EV_ENQUEUE, 0.0, np.array([1, 2, 3], dtype=np.int64))
    assert rec.n_events == 0


def test_owned_block_defers_sampling_to_materialization():
    tickets = np.arange(24, dtype=np.int64)
    times = np.linspace(0.0, 1.0, 24)
    details = np.linspace(5.0, 6.0, 24)
    eager = TraceRecorder(sample=4)
    eager.record_block(EV_COMPLETE, times, tickets, batch=2, detail=details)
    deferred = TraceRecorder(sample=4)
    deferred.record_block(
        EV_COMPLETE, times.copy(), tickets.copy(), batch=2,
        detail=details.copy(), own=True,
    )
    assert eager.table().equals(deferred.table())


def test_block_copies_caller_arrays_by_default():
    tickets = np.arange(8, dtype=np.int64)
    times = np.zeros(8)
    rec = TraceRecorder()
    rec.record_block(EV_ENQUEUE, times, tickets)
    tickets[:] = -99
    times[:] = 42.0
    table = rec.table()
    assert table.ticket.tolist() == list(range(8))
    assert float(table.time_s.max()) == 0.0


def test_block_broadcasts_scalar_time_and_detail():
    rec = TraceRecorder()
    rec.record_block(
        EV_ENQUEUE, 0.5, np.array([3, 4, 5], dtype=np.int64),
        batch=7, replica=1, detail=2.5, aux=rec.intern("x"),
    )
    table = rec.table()
    assert table.time_s.tolist() == [0.5] * 3
    assert table.detail.tolist() == [2.5] * 3
    assert table.batch.tolist() == [7] * 3
    assert [table.label_of(int(a)) for a in table.aux] == ["x"] * 3


def test_record_span_appends_start_end_pair():
    rec = TraceRecorder()
    lane = rec.intern("gpu")
    rec.record_span(
        EV_KERNEL_START, EV_KERNEL_END, 1.0, 1.5,
        batch=4, replica=2, detail=0.5, aux=lane,
    )
    table = rec.table()
    assert table.kind.tolist() == [EV_KERNEL_START, EV_KERNEL_END]
    assert table.time_s.tolist() == [1.0, 1.5]
    assert table.detail.tolist() == [0.5, 0.0]  # detail rides the start row
    assert table.ticket.tolist() == [-1, -1]
    assert table.batch.tolist() == [4, 4]
    assert table.aux.tolist() == [lane, lane]


# ----------------------------------------------------------------------
# TraceTable operations
# ----------------------------------------------------------------------
def make_small_table():
    rec = TraceRecorder()
    rec.record(EV_FLUSH, 0.3, batch=1, detail=4.0, aux=rec.intern("size"))
    rec.record(EV_COMPLETE, 0.1, ticket=0, batch=0, replica=1)
    rec.record(EV_ARRIVAL, 0.2, ticket=1, aux=rec.intern("t"))
    return rec.table()


def test_of_kind_and_for_replica_filter_rows():
    table = make_small_table()
    assert table.of_kind(EV_FLUSH).n_events == 1
    assert table.of_kind(EV_COMPLETE, EV_ARRIVAL).n_events == 2
    assert table.for_replica(1).kind.tolist() == [EV_COMPLETE]


def test_canonical_is_emission_order_free():
    table = make_small_table()
    shuffled = table.select(np.array([2, 0, 1]))
    assert not shuffled.equals(table)
    assert shuffled.canonical().equals(table.canonical())
    assert table.canonical().time_s.tolist() == [0.1, 0.2, 0.3]


def test_equals_requires_identical_labels():
    a, b = TraceRecorder(), TraceRecorder()
    a.record(EV_FLUSH, 0.0, aux=a.intern("size"))
    b.record(EV_FLUSH, 0.0, aux=b.intern("wait"))
    assert not a.table().equals(b.table())


def test_merge_orders_by_time_and_remaps_labels():
    a, b = TraceRecorder(), TraceRecorder()
    a.record(EV_FLUSH, 0.2, batch=0, aux=a.intern("size"))
    a.record(EV_FLUSH, 0.4, batch=1, aux=a.intern("wait"))
    b.record(EV_FLUSH, 0.1, batch=0, aux=b.intern("wait"))
    b.record(EV_FLUSH, 0.2, batch=1, aux=b.intern("drain"))
    merged = TraceTable.merge([a.table(), b.table()])
    assert merged.time_s.tolist() == [0.1, 0.2, 0.2, 0.4]
    # Ties broken by input order: a's 0.2 row sorts before b's.
    assert [merged.label_of(int(c)) for c in merged.aux] == [
        "wait", "size", "drain", "wait",
    ]
    assert merged.labels == ("size", "wait", "drain")


def test_merge_of_nothing_is_empty():
    assert TraceTable.merge([]).n_events == 0


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
def test_counter_accumulates_per_label_set():
    c = Counter("hits_total", "Hits")
    c.inc(2.0, lane="cache")
    c.inc(3.0, lane="cache")
    c.inc(1.0, lane="gpu")
    c.inc()
    assert c.value(lane="cache") == 5.0
    assert c.value(lane="gpu") == 1.0
    assert c.value() == 1.0
    assert c.value(lane="never") == 0.0
    with pytest.raises(ServiceError, match="cannot decrease"):
        c.inc(-1.0)


def test_gauge_moves_both_ways():
    g = Gauge("depth", "Queue depth")
    g.set(7.0)
    g.set(3.0)
    assert g.value() == 3.0


def test_histogram_bulk_observation_equals_singles():
    bulk = Histogram("lat", "Latency", buckets=(1.0, 2.0, 4.0))
    single = Histogram("lat", "Latency", buckets=(1.0, 2.0, 4.0))
    values = np.array([0.5, 1.0, 1.5, 3.0, 9.0, 2.0])
    bulk.observe_many(values, lane="gpu")
    for v in values:
        single.observe(float(v), lane="gpu")
    assert bulk.value(lane="gpu") == single.value(lane="gpu")
    # le semantics: 1.0 lands in the first bucket, 9.0 overflows.
    assert bulk.value(lane="gpu").bucket_counts == (2, 2, 1, 1)
    assert bulk.value(lane="gpu").count == 6
    assert bulk.value(lane="gpu").sum == pytest.approx(float(values.sum()))
    assert bulk.value(lane="cold").count == 0


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ServiceError, match="ascending"):
        Histogram("h", "", buckets=(1.0, 1.0))
    with pytest.raises(ServiceError, match="bucket"):
        Histogram("h", "", buckets=())


def test_registry_get_or_create_and_type_conflicts():
    reg = MetricRegistry()
    reg.counter("a_total", "A").inc()
    assert reg.counter("a_total").value() == 1.0  # same underlying metric
    with pytest.raises(ServiceError, match="already registered"):
        reg.gauge("a_total")
    reg.gauge("b")
    reg.histogram("c")
    assert reg.names == ["a_total", "b", "c"]


def test_service_stats_adapter_mirrors_the_snapshot():
    service, _ = traced_run()
    stats = service.stats()
    reg = service_stats_metrics(stats, replica=3)
    snap = reg.snapshot()
    assert snap.value(
        "repro_queries_answered_total", replica="3"
    ) == stats.queries_answered
    assert snap.value(
        "repro_batches_flushed_total", replica="3"
    ) == stats.batches_flushed
    assert snap.value(
        "repro_latency_p99_seconds", replica="3"
    ) == stats.latency_p99_s
    with pytest.raises(ServiceError, match="no series"):
        snap.value("repro_queries_answered_total")  # no replica label


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_prometheus_text_renders_cumulative_buckets():
    reg = MetricRegistry()
    h = reg.histogram("lat_seconds", "Latency", buckets=(1.0, 2.0))
    h.observe_many(np.array([0.5, 1.5, 9.0]), lane="gpu")
    reg.counter("up", "Liveness").inc()
    text = prometheus_text(reg.snapshot())
    assert "# TYPE lat_seconds histogram" in text
    assert 'lat_seconds_bucket{lane="gpu",le="1"} 1' in text
    assert 'lat_seconds_bucket{lane="gpu",le="2"} 2' in text
    assert 'lat_seconds_bucket{lane="gpu",le="+Inf"} 3' in text
    assert 'lat_seconds_sum{lane="gpu"} 11' in text
    assert 'lat_seconds_count{lane="gpu"} 3' in text
    assert "\nup 1\n" in text


def test_events_jsonl_round_trip(tmp_path):
    _, recorder = traced_run(queries=120)
    table = recorder.table()
    path = tmp_path / "events.jsonl"
    n = write_events_jsonl(str(path), table)
    lines = path.read_text().splitlines()
    assert n == len(lines) == table.n_events
    rows = [json.loads(line) for line in lines]
    assert all(row["kind"] in EVENT_NAMES for row in rows)
    assert {row["kind"] for row in rows} >= {"arrival", "flush", "complete"}


def test_chrome_trace_spans_cover_every_batch(tmp_path):
    service, recorder = traced_run()
    events = chrome_trace_events(recorder.table())
    kernels = [e for e in events if e.get("cat") == "kernel"]
    assert len(kernels) == service.stats().batches_flushed
    for span in kernels:
        assert span["ph"] == "X"
        assert span["dur"] >= 0.0
        assert span["args"]["size"] > 0
    assert any(
        e["ph"] == "M" and e["args"]["name"] == "replica 0" for e in events
    )
    path = tmp_path / "trace.json"
    assert write_chrome_trace(str(path), events) == len(events)
    payload = json.loads(path.read_text())
    assert payload["traceEvents"] == events


def test_kernel_records_convert_and_summarize(gpu_ctx):
    from repro.device.tracing import summarize_kernels
    from repro.primitives import exclusive_scan

    exclusive_scan(np.arange(256, dtype=np.int64), ctx=gpu_ctx)
    records = gpu_ctx.records
    assert records
    events = kernel_records_to_chrome(records, pid=2, start_s=1.0)
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(records)
    assert spans[0]["ts"] == pytest.approx(1.0 * 1e6)
    # Spans tile the serial execution: each starts where the last ended.
    for prev, span in zip(spans, spans[1:]):
        assert span["ts"] == pytest.approx(prev["ts"] + prev["dur"])
    # The device-layer summary is the same aggregation, by construction.
    assert summarize_kernels(records) == summarize_kernel_records(records)


# ----------------------------------------------------------------------
# StageTimer
# ----------------------------------------------------------------------
def test_stage_timer_accumulates_and_totals():
    timer = StageTimer()
    with timer.span("submit"):
        pass
    with timer.span("submit"):
        pass
    timer.add("drain", 0.5)
    assert timer.seconds("submit") >= 0.0
    assert timer.seconds("drain") == 0.5
    assert timer.seconds("never") == 0.0
    assert timer.total("drain") == 0.5
    assert timer.total() == pytest.approx(timer.seconds("submit") + 0.5)
    stages = timer.stages
    stages["drain"] = 99.0  # a copy: mutating it doesn't write back
    assert timer.seconds("drain") == 0.5


# ----------------------------------------------------------------------
# Serving-stack trace invariants
# ----------------------------------------------------------------------
def test_tracing_is_deterministic():
    _, first = traced_run()
    _, second = traced_run()
    assert first.table().equals(second.table())


def test_trace_counts_match_service_aggregates():
    service, recorder = traced_run()
    table = recorder.table()
    stats = service.stats()
    assert table.of_kind(EV_FLUSH).n_events == stats.batches_flushed
    answered = table.of_kind(EV_COMPLETE, EV_CACHE_LANE_HIT).n_events
    assert answered == stats.queries_answered
    assert table.of_kind(EV_KERNEL_START).n_events == stats.batches_flushed
    loads = table.of_kind(EV_INDEX_LOAD)
    assert loads.n_events > 0
    assert float(loads.detail.min()) >= 0.0


def test_index_evictions_are_traced():
    recorder = TraceRecorder()
    service = LCAQueryService(
        config=ServiceConfig(capacity_bytes=1024, **POLICY), observer=recorder
    )
    for name, seed in (("a", 0), ("b", 1)):
        parents = random_attachment_tree(512, seed=seed)
        service.register_tree(name, parents)
        xs, ys = generate_random_queries(512, 200, seed=seed + 2)
        service.submit_many(name, xs, ys, at=np.zeros(200))
        service.drain()
    evictions = recorder.table().of_kind(EV_INDEX_EVICT)
    assert evictions.n_events == service.stats().cache_evictions > 0
    assert float(evictions.detail.min()) > 0.0  # detail = freed bytes


def test_sampled_trace_is_strict_subset_of_full():
    _, full = traced_run(sample=1)
    _, sampled = traced_run(sample=4)
    full_rows = rowset(full.table())
    sampled_rows = rowset(sampled.table())
    assert sampled_rows < full_rows
    per_query = sampled.table().of_kind(*PER_QUERY_KINDS)
    assert per_query.n_events > 0
    assert not (per_query.ticket % 4).any()


def test_single_service_equals_one_replica_cluster():
    scenario = make_scenario("steady", scale=0.05, seed=3)
    single = TraceRecorder()
    service = LCAQueryService(config=ServiceConfig(**POLICY))
    replay(service, scenario, observer=single)
    clustered = TraceRecorder()
    cluster = ClusterService(config=ClusterConfig(n_replicas=1, **POLICY))
    replay(cluster, scenario, observer=clustered)
    assert single.table().canonical().equals(clustered.table().canonical())


def test_replay_report_carries_the_trace():
    recorder = TraceRecorder()
    report = replay(
        LCAQueryService(config=ServiceConfig(**POLICY)),
        make_scenario("steady", scale=0.05, seed=1),
        observer=recorder,
    )
    assert report.trace is not None
    assert report.trace.n_events == recorder.table().n_events > 0
    # The per-stage host wall split tiles the serving wall.
    assert report.serve_wall_s == pytest.approx(
        report.submit_wall_s + report.drain_wall_s + report.latencies_wall_s
    )
