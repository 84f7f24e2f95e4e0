"""Replay-harness contracts: legacy equivalence, shedding, determinism.

The two acceptance-grade properties live here:

* a ``steady`` scenario replayed on a single-node service reproduces the
  numbers the legacy hand-built uniform stream
  (:func:`~repro.experiments.service_experiments.serve_query_stream`, the
  row-maker of ``offered_load_sweep``) has always produced — bit for bit,
  down to the full ``ServiceStats`` snapshot;
* the ``flash-crowd`` scenario provably trips a bounded cluster's admission
  control (``Overloaded`` shedding, confined to the flash phase) while
  ``steady`` never sheds.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.service_experiments import scenario_suite, serve_query_stream
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.service import (
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    ClusterStats,
    LCAQueryService,
    ServiceConfig,
    ServiceStats,
)
from repro.workloads import (
    DeterministicArrivals,
    Phase,
    PoissonArrivals,
    Scenario,
    TrafficSource,
    make_scenario,
    replay,
)

POLICY = BatchPolicy(max_batch_size=256, max_wait_s=2e-4)
CONFIG = ServiceConfig(max_batch_size=256, max_wait_s=2e-4)


def bounded_cluster(max_pending=8192, policy_name="least-outstanding"):
    return ClusterService(
        config=ClusterConfig(
            n_replicas=4,
            max_batch_size=256,
            max_wait_s=2e-4,
            router=policy_name,
            max_pending=max_pending,
        )
    )


# ----------------------------------------------------------------------
# Steady scenario == the legacy offered_load_sweep stream
# ----------------------------------------------------------------------
def test_steady_replay_reproduces_offered_load_sweep_numbers():
    scenario = make_scenario("steady", scale=0.2, seed=0)
    # Reconstruct the exact stream offered_load_sweep would build for the
    # same tree / key seeds, rate and duration.
    source = scenario.sources[0]
    phase = scenario.phases[0]
    rate = phase.arrivals.rate_qps
    q = round(rate * phase.duration_s)
    parents = random_attachment_tree(source.nodes, seed=source.tree_seed)
    xs, ys = generate_random_queries(source.nodes, q, seed=source.key_seed)
    arrivals = np.arange(q, dtype=np.float64) / rate

    row = serve_query_stream(parents, xs, ys, arrivals, POLICY)
    report = replay(LCAQueryService(config=CONFIG), scenario, warm=False)

    assert report.queries_admitted == q == row["queries"]
    assert row["throughput_qps"] == float(f"{report.stats.throughput_qps:.4g}")
    assert row["latency_p50_us"] == round(report.stats.latency_p50_s * 1e6, 2)
    assert row["latency_p99_us"] == round(report.stats.latency_p99_s * 1e6, 2)
    assert row["batches"] == report.stats.batches_flushed
    assert row["mean_batch"] == round(report.stats.mean_batch_size, 1)
    assert row["cache_hit_rate"] == round(report.stats.cache_hit_rate, 3)


def test_steady_replay_stats_bit_identical_to_manual_stream():
    scenario = make_scenario("steady", scale=0.1, seed=0)
    source = scenario.sources[0]
    phase = scenario.phases[0]
    q = round(phase.arrivals.rate_qps * phase.duration_s)
    parents = random_attachment_tree(source.nodes, seed=source.tree_seed)
    xs, ys = generate_random_queries(source.nodes, q, seed=source.key_seed)
    arrivals = np.arange(q, dtype=np.float64) / phase.arrivals.rate_qps

    manual = LCAQueryService(config=CONFIG)
    manual.register_tree("steady", parents)
    tickets = manual.submit_many("steady", xs, ys, at=arrivals)
    manual.drain()

    replayed = LCAQueryService(config=CONFIG)
    report = replay(replayed, scenario, warm=False, check_answers=True)

    # The full snapshot — counts, histograms, latencies, cache accounting —
    # is equal, not merely close: the replay emitted the identical stream.
    assert report.stats == manual.stats()
    assert np.array_equal(replayed.latencies(np.arange(q)), manual.latencies(tickets))


def exact(value):
    """A float as its exact hex form (bit-equal, not merely close)."""
    return float(value).hex() if isinstance(value, float) else value


@pytest.mark.parametrize("answer_cache_bytes", [None, 1 << 20])
def test_one_replica_cluster_stats_equal_a_single_node_field_for_field(
    answer_cache_bytes,
):
    """A cluster snapshot is its workers' snapshots merged by the code a
    single node uses, so one replica reads exactly like the node."""
    scenario = make_scenario("steady", scale=0.1, seed=0)
    knobs = dict(max_batch_size=256, max_wait_s=2e-4,
                 answer_cache_bytes=answer_cache_bytes)
    node = replay(LCAQueryService(config=ServiceConfig(**knobs)), scenario).stats
    cluster = replay(
        ClusterService(config=ClusterConfig(n_replicas=1, **knobs)), scenario
    ).stats
    assert isinstance(cluster, ClusterStats) and not isinstance(node, ClusterStats)
    assert node.queries_answered > 0
    for name in (f.name for f in dataclasses.fields(ServiceStats)):
        assert exact(getattr(cluster, name)) == exact(getattr(node, name)), name


# ----------------------------------------------------------------------
# Shedding: flash-crowd must shed on a bounded cluster, steady must not
# ----------------------------------------------------------------------
def test_flash_crowd_sheds_and_steady_does_not():
    flash_report = replay(bounded_cluster(), make_scenario("flash-crowd", scale=0.25))
    assert flash_report.queries_shed > 0
    by_name = {p.name: p for p in flash_report.phases}
    assert by_name["flash"].queries_shed > 0
    assert by_name["flash"].shed_rate > 0.3
    assert by_name["calm"].queries_shed == 0
    assert by_name["recovery"].queries_shed == 0
    # Admitted prefixes of partially shed blocks kept their tickets.
    assert flash_report.queries_admitted + flash_report.queries_shed == (
        flash_report.queries_offered
    )
    assert by_name["flash"].queries_admitted > 0

    steady_report = replay(bounded_cluster(), make_scenario("steady", scale=0.25))
    assert steady_report.queries_shed == 0
    assert steady_report.queries_admitted == steady_report.queries_offered


def test_unbounded_cluster_never_sheds_the_flash():
    cluster = bounded_cluster(max_pending=None, policy_name="round-robin")
    report = replay(cluster, make_scenario("flash-crowd", scale=0.25))
    assert report.queries_shed == 0


# ----------------------------------------------------------------------
# Determinism and multi-source replay
# ----------------------------------------------------------------------
def test_replay_is_deterministic():
    scenario = make_scenario("multi-tenant", scale=0.25, seed=5)
    first = replay(bounded_cluster(), scenario)
    second = replay(bounded_cluster(), scenario)
    assert first.phases == second.phases
    assert first.queries_offered == second.queries_offered
    assert first.throughput_qps == second.throughput_qps
    assert first.latency_p99_s == second.latency_p99_s
    assert first.load_imbalance == second.load_imbalance


@pytest.mark.parametrize("make_target", [
    lambda: LCAQueryService(config=CONFIG),
    bounded_cluster,
], ids=["service", "cluster"])
def test_a_replay_report_is_a_value(make_target):
    """The report holds modeled outcomes only (no host-clock field), so two
    replays of one scenario compare equal whole and render the same text."""
    scenario = make_scenario("multi-tenant", scale=0.25, seed=5)
    first = replay(make_target(), scenario)
    second = replay(make_target(), scenario)
    assert first == second
    assert first.format() == second.format()


def test_the_scenario_is_the_one_source_of_the_trace_seed():
    """A fresh realization of a workload is a scenario with another seed;
    ``replay`` has no seed of its own to override it with."""
    five = make_scenario("multi-tenant", scale=0.25, seed=5)
    six = make_scenario("multi-tenant", scale=0.25, seed=6)
    assert replay(bounded_cluster(), five) != replay(bounded_cluster(), six)
    with pytest.raises(TypeError):
        replay(bounded_cluster(), five, seed=6)


def test_multi_source_replay_on_single_service_verifies_answers():
    scenario = Scenario(
        name="two-tenants",
        sources=(
            TrafficSource("a", nodes=2_048, weight=0.7, tree_seed=1),
            TrafficSource("b", nodes=512, weight=0.3, tree_seed=2),
        ),
        phases=(Phase("p", PoissonArrivals(80_000.0), 0.05),),
        seed=9,
        mix_stride=16,
    )
    service = LCAQueryService(config=CONFIG)
    report = replay(service, scenario, check_answers=True)
    assert report.target_kind == "service"
    assert report.queries_shed == 0
    assert report.queries_admitted == report.queries_offered > 0
    # Both datasets actually saw traffic.
    assert set(service.datasets) == {"a", "b"}
    assert service.stats().queries_answered == report.queries_admitted


def test_replay_respects_preregistered_trees():
    parents = np.array([-1, 0, 0, 1, 1], dtype=np.int64)
    service = LCAQueryService(config=CONFIG)
    service.register_tree("tiny", parents)
    scenario = Scenario(
        name="prewired",
        sources=(TrafficSource("tiny", nodes=99),),  # nodes ignored: registered
        phases=(Phase("p", DeterministicArrivals(10_000.0), 0.02),),
    )
    report = replay(service, scenario, check_answers=True)
    assert report.queries_admitted == 200
    # Keys were sampled from the registered 5-node tree, not `nodes=99`.
    assert service.stats().queries_answered == 200


def test_replay_rejects_bad_window():
    with pytest.raises(ConfigurationError, match="admission_window_s"):
        replay(
            LCAQueryService(),
            make_scenario("steady", scale=0.1),
            admission_window_s=0.0,
        )


# ----------------------------------------------------------------------
# The scenario_suite experiment
# ----------------------------------------------------------------------
def test_scenario_suite_rows_have_the_report_columns():
    rows = scenario_suite(
        ["steady", "flash-crowd"],
        policies=("least-outstanding",),
        scale=0.25,
        check_answers=True,
    )
    assert [r["scenario"] for r in rows] == ["steady", "flash-crowd"]
    for row in rows:
        for key in (
            "policy",
            "offered",
            "admitted",
            "shed_rate",
            "peak_phase_shed_rate",
            "throughput_qps",
            "latency_p50_us",
            "latency_p99_us",
            "load_imbalance",
        ):
            assert key in row
    steady_row, flash_row = rows
    assert steady_row["shed_rate"] == 0.0
    assert flash_row["shed_rate"] > 0.0
    assert flash_row["peak_phase_shed_rate"] >= flash_row["shed_rate"]


# ----------------------------------------------------------------------
# Phase boundaries read counters; the report's one snapshot is post-drain
# ----------------------------------------------------------------------
CACHED = dict(max_batch_size=256, max_wait_s=2e-4, answer_cache_bytes=1 << 18)


@pytest.mark.parametrize("make_target", [
    lambda: LCAQueryService(config=ServiceConfig(**CACHED)),
    lambda: ClusterService(config=ClusterConfig(n_replicas=3, **CACHED)),
], ids=["service", "cluster"])
@pytest.mark.parametrize("name", ["flash-crowd", "multi-tenant"])
def test_phase_marks_equal_snapshots_without_taking_them(monkeypatch, make_target,
                                                         name):
    """Each boundary reads the workers' counters, not a ``stats()`` snapshot
    (a percentile pass per replica); a replay that snapshots every boundary
    reports the very same phases."""
    scenario = make_scenario(name, scale=0.25)
    target = make_target()
    stats = type(target).stats
    snapshots = []
    monkeypatch.setattr(type(target), "stats",
                        lambda self: snapshots.append(stats(self)) or snapshots[-1])
    report = replay(target, scenario)
    assert len(snapshots) == 1 and report.stats is snapshots[0]
    monkeypatch.setattr(type(target), "stats", stats)

    def snapshot_counters(target):
        s = target.stats()
        return (s.answer_cache_hits, s.answer_cache_misses, s.queries_answered,
                s.kernel_queries)

    monkeypatch.setattr(importlib.import_module("repro.workloads.replay"),
                        "_counters", snapshot_counters)
    oracle = replay(make_target(), scenario)
    assert report.phases == oracle.phases
    assert report.answer_cache_hit_rate == oracle.answer_cache_hit_rate
    assert report.dedup_factor == oracle.dedup_factor
