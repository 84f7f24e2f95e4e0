"""Chaos scenario family and client retry policy: the availability story.

Every named ``chaos-*`` scenario must replay on a small fault-injected
cluster with *zero lost admitted queries* and every answer verified against
the oracle; replays are bit-deterministic; and the client-side
:class:`~repro.workloads.RetryPolicy` accounting obeys its invariant —
``queries_retried + queries_abandoned == queries_shed`` (every first-attempt
shed is either eventually admitted on retry or loudly abandoned).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import ClusterConfig, ClusterService
from repro.workloads import (
    CHAOS_SCENARIOS,
    RetryPolicy,
    make_chaos_scenario,
    make_scenario,
    replay,
    replay_chaos,
    transient_storm,
)

POLICY = {"max_batch_size": 256, "max_wait_s": 2e-4}


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------


def test_make_chaos_scenario_validation():
    with pytest.raises(ConfigurationError):
        make_chaos_scenario("chaos-nope")
    with pytest.raises(ConfigurationError):
        make_chaos_scenario("chaos-replica-kill", scale=0.0)
    with pytest.raises(ConfigurationError):
        make_chaos_scenario("chaos-replica-kill", nodes_scale=-1.0)


def test_chaos_scenarios_carry_schedules():
    for name in CHAOS_SCENARIOS:
        chaos = make_chaos_scenario(name, scale=0.2, seed=1)
        assert chaos.name == chaos.scenario.name
        assert chaos.events, name
        injector = chaos.injector()
        assert injector.pending == len(chaos.events)
        # Fresh injector per call: cursors are never shared between runs.
        assert chaos.injector() is not injector
        horizon = sum(p.duration_s for p in chaos.scenario.phases)
        assert all(0.0 <= e.time_s <= horizon for e in chaos.events), name


def test_transient_storm_is_seeded_and_bounded():
    a = transient_storm(200.0, 0.5, replica=1, seed=42)
    b = transient_storm(200.0, 0.5, replica=1, seed=42)
    c = transient_storm(200.0, 0.5, replica=1, seed=43)
    assert [e.time_s for e in a] == [e.time_s for e in b]
    assert [e.time_s for e in a] != [e.time_s for e in c]
    assert all(e.action == "transient" and e.replica == 1 for e in a)
    assert all(0.0 <= e.time_s <= 0.5 for e in a)


def test_replay_chaos_rejects_unreachable_replica_targets():
    chaos = make_chaos_scenario("chaos-rolling-restart", scale=0.2)
    with pytest.raises(ConfigurationError):
        # restarts replica 2 of a 2-cluster
        replay_chaos(chaos, config=ClusterConfig(n_replicas=2))


# ----------------------------------------------------------------------
# The availability property: zero lost, verified answers, deterministic
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
def test_chaos_replay_loses_nothing_and_verifies(name):
    chaos = make_chaos_scenario(name, scale=0.25, seed=3)
    replicas = max(2, chaos.min_replicas())
    report = replay_chaos(
        chaos,
        config=ClusterConfig(n_replicas=replicas, max_pending=8192, **POLICY),
        check_answers=True,  # every answer checked against the oracle
    )
    stats = report.stats
    assert report.queries_admitted > 0
    assert stats.queries_answered == stats.queries_submitted  # zero lost
    if name in ("chaos-replica-kill", "chaos-kill-flash", "chaos-rolling-restart"):
        assert stats.queries_retried > 0, "the kill should strand work"
    assert stats.faults_injected == len(chaos.events)


def test_chaos_replay_is_deterministic():
    chaos = make_chaos_scenario("chaos-replica-kill", scale=0.25, seed=5)
    reports = [
        replay_chaos(chaos, config=ClusterConfig(n_replicas=2, **POLICY))
        for _ in range(2)
    ]
    assert reports[0].stats == reports[1].stats
    assert reports[0].latency_p99_s == reports[1].latency_p99_s
    for a, b in zip(reports[0].phases, reports[1].phases):
        assert a == b


def test_chaos_scale_out_changes_membership():
    chaos = make_chaos_scenario("chaos-scale-out", scale=0.25, seed=7)
    report = replay_chaos(
        chaos, config=ClusterConfig(n_replicas=2, **POLICY), check_answers=True
    )
    assert report.stats.membership_events == 2  # one add, one retire
    assert report.stats.queries_answered == report.stats.queries_submitted


# ----------------------------------------------------------------------
# Client-side retry policy
# ----------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(base_backoff_s=0.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_backoff_s=1e-6)
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.0)


def test_retry_policy_backoff_is_capped_and_seeded():
    policy = RetryPolicy(
        base_backoff_s=1e-3, max_backoff_s=4e-3, max_attempts=8, jitter=0.1
    )
    rng_a = np.random.default_rng(0)
    rng_b = np.random.default_rng(0)
    delays_a = [policy.backoff_s(k, rng_a) for k in range(8)]
    delays_b = [policy.backoff_s(k, rng_b) for k in range(8)]
    assert delays_a == delays_b  # same rng stream, same jitter
    for k, d in enumerate(delays_a):
        base = min(1e-3 * 2**k, 4e-3)
        assert 0.9 * base <= d <= 1.1 * base


def test_retry_accounting_invariant_on_an_overloaded_cluster():
    # A flash crowd on a tightly bounded service sheds heavily; with a
    # client retry policy every shed query is either admitted on a later
    # attempt or abandoned after max_attempts — never silently dropped.
    scenario = make_scenario("flash-crowd", scale=0.3, seed=9)

    def run(retry):
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, max_pending=256, **POLICY)
        )
        return replay(cluster, scenario, retry=retry)

    plain = run(None)
    assert plain.queries_shed > 0
    assert plain.queries_retried == plain.queries_abandoned == 0

    report = run(RetryPolicy(max_attempts=3, seed=1))
    assert report.queries_shed > 0
    assert report.queries_retried + report.queries_abandoned == report.queries_shed
    assert report.queries_retried > 0  # backoff lands some in the lull
    # Retried admissions are extra admitted work on top of the plain run.
    assert report.queries_admitted == plain.queries_admitted + report.queries_retried
    # Per-phase counters roll up to the scenario totals.
    assert sum(p.queries_retried for p in report.phases) == report.queries_retried
    assert sum(p.queries_abandoned for p in report.phases) == report.queries_abandoned
    # The formatted report surfaces the client-retry line.
    assert "admitted on retry" in report.format()
    assert "admitted on retry" not in plain.format()


def test_retry_policy_is_deterministic():
    scenario = make_scenario("flash-crowd", scale=0.25, seed=11)

    def run():
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, max_pending=256, **POLICY)
        )
        return replay(cluster, scenario, retry=RetryPolicy(seed=2))

    a, b = run(), run()
    assert a.queries_retried == b.queries_retried
    assert a.queries_abandoned == b.queries_abandoned
    assert a.stats == b.stats
