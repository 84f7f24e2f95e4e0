"""repro.obs.report: decomposition, attribution and the CLI.

The load-bearing property is exactness: every answered query's recorded
latency splits into queue + lane wait + service with *zero* residual, on
single services and clusters alike, so the tail-attribution table is an
accounting identity rather than an estimate.
"""

import json

import numpy as np
import pytest

from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.obs import TraceRecorder
from repro.obs.events import EV_SHED
from repro.obs.report import (
    batch_spans,
    decomposition_summary,
    dispatch_error,
    main,
    query_breakdown,
    replica_utilization,
    tail_attribution,
)
from repro.service import (
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    ServiceConfig,
)
from repro.workloads import make_scenario, replay

POLICY = {"max_batch_size": 64, "max_wait_s": 2e-4}


@pytest.fixture(scope="module")
def traced_service():
    recorder = TraceRecorder()
    service = LCAQueryService(config=ServiceConfig(**POLICY))
    service.attach_observer(recorder)
    parents = random_attachment_tree(512, seed=0)
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(512, 600, seed=1)
    service.submit_many("t", xs, ys, at=np.arange(600, dtype=np.float64) / 1e5)
    service.drain()
    return service, recorder.table()


@pytest.fixture(scope="module")
def cluster_trace():
    recorder = TraceRecorder()
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=4, max_pending=4096, **POLICY)
    )
    report = replay(
        cluster, make_scenario("flash-crowd", scale=0.25), observer=recorder
    )
    return report, recorder.table()


# ----------------------------------------------------------------------
# Decomposition
# ----------------------------------------------------------------------
def test_breakdown_is_an_exact_accounting(traced_service):
    service, table = traced_service
    b = query_breakdown(table)
    assert b.n_queries == service.stats().queries_answered
    # The three components sum back to the recorded latency bit-for-bit.
    assert np.array_equal(
        b.queue_wait_s + b.lane_wait_s + b.service_s, b.latency_s
    )
    assert float(b.queue_wait_s.min()) >= 0.0
    assert float(b.lane_wait_s.min()) >= 0.0
    assert np.array_equal(b.latency_s, b.completion_s - b.arrival_s)
    assert not b.cache_lane.any()  # no answer cache in this run


def test_breakdown_decomposes_cluster_traces_too(cluster_trace):
    report, table = cluster_trace
    b = query_breakdown(table)
    assert b.n_queries == report.queries_admitted
    assert np.array_equal(
        b.queue_wait_s + b.lane_wait_s + b.service_s, b.latency_s
    )
    assert len(np.unique(b.replica)) == 4


def test_decomposition_summary_renders(traced_service):
    _, table = traced_service
    text = decomposition_summary(query_breakdown(table))
    assert "latency decomposition over 600 answered queries" in text
    for component in ("queue", "lane wait", "service", "total"):
        assert component in text


# ----------------------------------------------------------------------
# Batch spans, dispatch accuracy, utilization
# ----------------------------------------------------------------------
def test_batch_spans_join_the_lifecycle(traced_service):
    service, table = traced_service
    spans = batch_spans(table)
    assert len(spans) == service.stats().batches_flushed
    assert sum(span.size for span in spans) == 600
    triggers = set(service.stats().flush_triggers)
    for span in spans:
        assert span.flush_s <= span.start_s <= span.end_s
        assert span.start_s >= span.flush_s and span.service_s > 0.0
        assert span.trigger in triggers
        assert not np.isnan(span.predicted_s)


def test_dispatch_error_prices_every_batch(traced_service):
    service, table = traced_service
    err = dispatch_error(table)
    assert err.n_batches == service.stats().batches_flushed
    assert err.mean_predicted_s > 0.0
    assert err.mean_charged_s > 0.0
    assert err.bias > 0.0
    assert err.mean_abs_rel_error >= 0.0


def test_replica_utilization_bounds(cluster_trace):
    _, table = cluster_trace
    rows = replica_utilization(table)
    assert {row.replica for row in rows} == {0, 1, 2, 3}
    for row in rows:
        assert 0.0 < row.utilization <= 1.0 + 1e-9
        assert row.busy_s <= row.span_s + 1e-12


# ----------------------------------------------------------------------
# Tail attribution
# ----------------------------------------------------------------------
def test_tail_attribution_lists_the_worst_queries(traced_service):
    _, table = traced_service
    text = tail_attribution(table, quantile=0.99, worst=5)
    lines = text.splitlines()
    assert "p99 latency" in lines[0]
    assert "worst 5" in lines[0]
    assert len(lines) == 7  # header + column line + 5 rows
    assert "served in" in lines[1] and "behind" in lines[1]
    assert all("batch" in line for line in lines[2:])


def test_shed_events_account_for_every_shed_query(cluster_trace):
    report, table = cluster_trace
    shed = table.of_kind(EV_SHED)
    assert report.queries_shed > 0
    assert int(shed.detail.sum()) == report.queries_shed
    assert (shed.replica == -1).all()  # cluster-level events


def test_empty_trace_degrades_gracefully():
    table = TraceRecorder().table()
    assert query_breakdown(table).n_queries == 0
    assert batch_spans(table) == []
    assert dispatch_error(table).n_batches == 0
    assert replica_utilization(table) == []
    assert "no answered queries" in decomposition_summary(query_breakdown(table))
    assert "no answered queries" in tail_attribution(table)


# ----------------------------------------------------------------------
# The CLI
# ----------------------------------------------------------------------
def test_report_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "obs"
    code = main(
        [
            "--scenario", "flash-crowd",
            "--scale", "0.1",
            "--replicas", "2",
            "--out", str(out),
            "--jsonl",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "latency decomposition" in stdout
    assert "p99 latency" in stdout
    assert "replica utilization" in stdout
    assert "dispatch accuracy" in stdout
    trace = json.loads((out / "trace_flash-crowd.json").read_text())
    assert trace["traceEvents"]
    assert (out / "events_flash-crowd.jsonl").read_text().splitlines()


def test_report_cli_single_replica_sampled(tmp_path, capsys):
    out = tmp_path / "obs"
    code = main(
        [
            "--scenario", "steady",
            "--scale", "0.05",
            "--replicas", "1",
            "--sample", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "latency decomposition" in capsys.readouterr().out
    assert (out / "trace_steady.json").exists()
