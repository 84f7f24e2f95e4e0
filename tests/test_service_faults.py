"""Fault-tolerance tests: injection, failover, hedging, elastic membership.

The contract under test is the one ``docs/chaos.md`` documents: faults are
deterministic scheduled events on the simulated clock, admitted queries are
never silently lost (they fail over, park, or raise the typed
:class:`~repro.errors.ReplicaDown`), reported latency is measured from the
*original* arrival across any number of re-dispatches, and an empty
:class:`~repro.service.FaultInjector` is a provable no-op — bit-identical
to running without one.
"""

import numpy as np
import pytest

from repro.control import SLO, AutoscalePolicy, Controller
from repro.errors import ConfigurationError, ReplicaDown, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.obs import TraceRecorder
from repro.obs.events import (
    EV_ARRIVAL,
    EV_COMPLETE,
    EV_FAULT,
    EV_HEDGE,
    EV_MEMBERSHIP,
    EV_RETRY,
)
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    LCAQueryService,
    ServiceConfig,
)

POLICY = {"max_batch_size": 64, "max_wait_s": 1e-4}


def build_cluster(
    parents, n_replicas, *, replicas=None, fault_injector=None, observer=None, **knobs
):
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=n_replicas, **knobs),
        fault_injector=fault_injector,
    )
    cluster.attach_observer(observer)
    cluster.register_tree(
        "t", parents, replicas=n_replicas if replicas is None else replicas
    )
    return cluster


def chunked_submit(cluster, dataset, xs, ys, arrivals, chunk):
    tickets = [
        cluster.submit_many(
            dataset, xs[i : i + chunk], ys[i : i + chunk], at=arrivals[i : i + chunk]
        )
        for i in range(0, xs.size, chunk)
    ]
    return np.concatenate(tickets)


def stream(n_nodes, n_queries, *, seed, rate=200_000.0):
    parents = random_attachment_tree(n_nodes, seed=seed)
    xs, ys = generate_random_queries(n_nodes, n_queries, seed=seed + 1)
    arrivals = np.arange(n_queries, dtype=np.float64) / rate
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    return parents, xs, ys, arrivals, expected


# ----------------------------------------------------------------------
# Schedule surface: FaultEvent / FaultInjector
# ----------------------------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(ConfigurationError):
        FaultEvent(time_s=0.0, action="explode", replica=0)
    with pytest.raises(ConfigurationError):
        FaultEvent(time_s=-1.0, action="kill", replica=0)
    with pytest.raises(ConfigurationError):
        FaultEvent(time_s=0.0, action="kill")  # needs a replica id
    with pytest.raises(ConfigurationError):
        FaultEvent(time_s=0.0, action="slowdown", replica=0, factor=0.0)
    with pytest.raises(ConfigurationError):
        FaultEvent(time_s=0.0, action="transient", replica=0, count=0)
    # "add" creates a replica and ignores the target id.
    assert FaultEvent(time_s=0.0, action="add").replica == -1


def test_fault_injector_is_a_sorted_cursor():
    events = [
        FaultEvent(time_s=0.3, action="recover", replica=0),
        FaultEvent(time_s=0.1, action="kill", replica=0),
        FaultEvent(time_s=0.1, action="kill", replica=1),
    ]
    inj = FaultInjector(events)
    assert [e.time_s for e in inj.events] == [0.1, 0.1, 0.3]
    assert inj.next_time_s == 0.1
    assert inj.advance(0.05) == []
    due = inj.advance(0.1)
    # Ties keep construction order within the same instant.
    assert [(e.action, e.replica) for e in due] == [("kill", 0), ("kill", 1)]
    assert inj.pending == 1
    assert [e.action for e in inj.advance(10.0)] == ["recover"]
    assert inj.next_time_s is None


def test_cluster_rejects_fault_on_unknown_replica():
    parents = random_attachment_tree(64, seed=0)
    injector = FaultInjector([FaultEvent(time_s=1e-3, action="kill", replica=5)])
    cluster = build_cluster(parents, 2, **POLICY, fault_injector=injector)
    with pytest.raises(ServiceError):
        cluster.advance_to(2e-3)


# ----------------------------------------------------------------------
# Kill / failover: answers survive, accounting is exact
# ----------------------------------------------------------------------


def test_kill_and_recover_answers_match_oracle():
    parents, xs, ys, arrivals, expected = stream(256, 1200, seed=3)
    mid = float(arrivals[arrivals.size // 2])
    injector = FaultInjector(
        [
            FaultEvent(time_s=mid, action="kill", replica=0),
            FaultEvent(time_s=mid + 1e-3, action="recover", replica=0),
        ]
    )
    observer = TraceRecorder()
    cluster = build_cluster(
        parents, 2, **POLICY, fault_injector=injector, observer=observer
    )
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.drain()

    np.testing.assert_array_equal(cluster.results(tickets), expected)
    stats = cluster.stats()
    assert stats.queries_submitted == xs.size
    assert stats.queries_answered == xs.size  # zero lost
    assert stats.queries_retried > 0  # the kill stranded work mid-batch
    # Each retry re-admits a query into a worker: the workers' own admissions
    # less the retries are the admitted (ticketed) queries, each once.
    assert (sum(r.queries_submitted for r in stats.replicas)
            - stats.queries_retried == stats.queries_submitted)
    assert stats.faults_injected == 2
    table = observer.table()
    assert len(table.of_kind(EV_FAULT)) == 2
    assert len(table.of_kind(EV_RETRY)) > 0



def traced_kill_stream(sample=1):
    """The kill / recover stream of the test above, traced at ``sample``."""
    parents, xs, ys, arrivals, expected = stream(256, 1200, seed=3)
    mid = float(arrivals[arrivals.size // 2])
    injector = FaultInjector(
        [
            FaultEvent(time_s=mid, action="kill", replica=0),
            FaultEvent(time_s=mid + 1e-3, action="recover", replica=0),
        ]
    )
    observer = TraceRecorder(sample=sample)
    cluster = build_cluster(
        parents, 2, **POLICY, fault_injector=injector, observer=observer
    )
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.drain()
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    return cluster, observer.table()


def test_a_failover_keeps_the_clients_ticket():
    """Workers answer into the cluster's ticket table, so a trace carries the
    ticket the client holds: a re-admitted query arrives on the killed
    replica, then on the survivor, under one ticket, and completes there."""
    cluster, table = traced_kill_stream()
    arrivals = table.of_kind(EV_ARRIVAL)
    assert np.array_equal(np.unique(arrivals.ticket), np.arange(1200))
    tickets, counts = np.unique(arrivals.ticket, return_counts=True)
    twice = tickets[counts == 2]
    assert counts.max() == 2 and twice.size == cluster.stats().queries_retried > 0
    for ticket in twice:
        assert arrivals.replica[arrivals.ticket == ticket].tolist() == [0, 1]
    completes = table.of_kind(EV_COMPLETE)
    assert np.array_equal(np.sort(completes.ticket), np.arange(1200))
    assert (completes.replica[np.isin(completes.ticket, twice)] == 1).all()


def test_a_sampled_failover_trace_is_the_full_trace_at_even_tickets():
    _, full = traced_kill_stream()
    _, sampled = traced_kill_stream(sample=2)
    keep = (full.ticket < 0) | (full.ticket % 2 == 0)
    assert sampled.canonical().equals(full.select(keep).canonical())

def test_parked_queries_survive_total_outage_until_recovery():
    parents, xs, ys, arrivals, expected = stream(128, 200, seed=6)
    t_kill = float(arrivals[-1]) + 1e-5
    injector = FaultInjector(
        [
            FaultEvent(time_s=t_kill, action="kill", replica=0),
            FaultEvent(time_s=t_kill, action="kill", replica=1),
            FaultEvent(time_s=t_kill + 5e-3, action="recover", replica=0),
        ]
    )
    # A huge wait deadline keeps everything queued until the double kill.
    slow = {"max_batch_size": 1 << 15, "max_wait_s": 10.0}
    cluster = build_cluster(parents, 2, **slow, fault_injector=injector)
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.advance_to(t_kill + 1e-4)  # both copies now dead; queries parked
    with pytest.raises(ReplicaDown):
        cluster.drain()
    cluster.advance_to(t_kill + 6e-3)  # recovery re-dispatches the parked work
    cluster.drain()
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    assert cluster.stats().queries_answered == xs.size


# ----------------------------------------------------------------------
# Hedged dispatch
# ----------------------------------------------------------------------


def test_hedge_beats_a_slowed_replica():
    parents, xs, ys, arrivals, expected = stream(128, 256, seed=8)
    injector = FaultInjector(
        [FaultEvent(time_s=0.0, action="slowdown", replica=0, factor=1e6)]
    )
    observer = TraceRecorder()
    cluster = build_cluster(
        parents,
        2,
        **POLICY,
        router="round-robin",  # keep routing half the load onto the laggard
        fault_injector=injector,
        hedge_delay_s=1e-4,
        observer=observer,
    )
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.drain()
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    stats = cluster.stats()
    assert stats.hedges_issued > 0
    assert stats.hedges_won > 0  # the healthy copy answers first
    assert len(observer.table().of_kind(EV_HEDGE)) == stats.hedges_issued


# ----------------------------------------------------------------------
# Elastic membership
# ----------------------------------------------------------------------


def test_add_replica_joins_live_and_serves():
    parents, xs, ys, arrivals, expected = stream(128, 300, seed=10)
    observer = TraceRecorder()
    cluster = build_cluster(parents, 2, **POLICY, observer=observer)
    half = xs.size // 2
    t0 = chunked_submit(cluster, "t", xs[:half], ys[:half], arrivals[:half], 64)
    rid = cluster.add_replica()
    assert rid == 2
    assert (cluster.n_replicas, cluster.n_live) == (3, 3)
    cluster.register_tree("u", parents, on=[rid])
    t1 = chunked_submit(cluster, "t", xs[half:], ys[half:], arrivals[half:], 64)
    cluster.drain()
    np.testing.assert_array_equal(
        cluster.results(np.concatenate([t0, t1])), expected
    )
    assert cluster.stats().membership_events == 1
    assert len(observer.table().of_kind(EV_MEMBERSHIP)) == 1


def test_retire_replica_drains_before_leaving():
    parents, xs, ys, arrivals, expected = stream(128, 200, seed=12)
    slow = {"max_batch_size": 1 << 15, "max_wait_s": 10.0}
    cluster = build_cluster(parents, 2, **slow)
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    victim = cluster.placement("t")[0]
    assert cluster.pending_count() == xs.size
    cluster.retire_replica(victim)  # drain-before-retire: nothing is lost
    cluster.drain()
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    assert cluster.stats().queries_answered == xs.size
    assert cluster.n_active == 1
    assert victim not in cluster.placement("t")


def test_retire_validation():
    parents = random_attachment_tree(64, seed=13)
    cluster = ClusterService(config=ClusterConfig(n_replicas=2, **POLICY))
    cluster.register_tree("pinned", parents, on=[1])
    cluster.register_tree("t", parents, replicas=2)
    with pytest.raises(ServiceError):
        cluster.retire_replica(7)  # unknown
    with pytest.raises(ServiceError):
        cluster.retire_replica(1)  # sole copy of a pinned dataset
    cluster.register_tree("spare", parents, on=[0])
    with pytest.raises(ServiceError):
        cluster.retire_replica(0)  # also pinned now; nothing retirable
    cluster2 = build_cluster(parents, 2, **POLICY)
    cluster2.retire_replica(0)
    with pytest.raises(ServiceError):
        cluster2.retire_replica(0)  # already retired
    with pytest.raises(ServiceError):
        cluster2.retire_replica(1)  # last active replica


def test_scheduled_scale_out_and_retire():
    parents, xs, ys, arrivals, expected = stream(128, 400, seed=14)
    mid = float(arrivals[arrivals.size // 2])
    injector = FaultInjector(
        [
            FaultEvent(time_s=mid, action="add"),
            FaultEvent(time_s=mid + 2e-4, action="retire", replica=0),
        ]
    )
    cluster = build_cluster(parents, 2, **POLICY, fault_injector=injector)
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.drain()
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    stats = cluster.stats()
    assert stats.membership_events == 2
    assert stats.faults_injected == 2
    assert cluster.n_replicas == 3
    assert cluster.n_active == 2


# ----------------------------------------------------------------------
# No-op properties: an empty injector is provably free
# ----------------------------------------------------------------------


def test_single_replica_noop_injector_matches_plain_service_trace():
    parents, xs, ys, arrivals, _ = stream(128, 300, seed=16)

    plain_obs = TraceRecorder()
    plain = LCAQueryService(config=ServiceConfig(**POLICY))
    plain.attach_observer(plain_obs)
    plain.register_tree("t", parents)
    for i in range(0, xs.size, 64):
        plain.submit_many(
            "t", xs[i : i + 64], ys[i : i + 64], at=arrivals[i : i + 64]
        )
    plain.drain()

    cluster_obs = TraceRecorder()
    cluster = build_cluster(
        parents,
        1,
        **POLICY,
        fault_injector=FaultInjector(()),
        observer=cluster_obs,
    )
    chunked_submit(cluster, "t", xs, ys, arrivals, 64)
    cluster.drain()

    # The canonical lifecycle trace — every event, in order, bit for bit.
    assert cluster_obs.table().equals(plain_obs.table())


# ----------------------------------------------------------------------
# Reactive autoscaling under chaos
# ----------------------------------------------------------------------


def test_autoscaler_reacts_during_chaos_flash_without_losing_queries():
    """``chaos-autoscale``: a kill lands on the flash edge and no scripted
    scale-out is coming — a shed-driven policy must close the capacity gap
    while availability stays at 100% (every admitted query answered)."""
    from repro.workloads import make_chaos_scenario
    from repro.workloads.chaos import replay_chaos

    chaos = make_chaos_scenario("chaos-autoscale", scale=0.25, nodes_scale=0.25)
    policy = AutoscalePolicy(
        min_replicas=2,
        max_replicas=6,
        signals=("shed",),
        shed_out=0.01,
        cooldown_out_s=2e-3,
        cooldown_in_s=4e-3,
        step_out=2,
        step_in=2,
    )
    controller = Controller(
        SLO(p99_latency_s=1.0), interval_s=2e-3, autoscale=policy
    )
    report = replay_chaos(
        chaos,
        config=ClusterConfig(n_replicas=2, max_pending=2048, **POLICY),
        admission_window_s=2e-3,
        check_answers=True,
        controller=controller,
    )
    moves = [d for d in controller.decisions if d.kind == "membership"]
    assert any(d.reason.startswith("scale-out:shed") for d in moves)
    assert any(d.reason == "scale-in" for d in moves)
    assert max(d.n_replicas for d in moves) > 2
    # The flash shed (that is what fired the policy), but nothing admitted
    # was lost — not to the kill, not to any scale event.
    assert report.queries_shed > 0
    assert report.queries_admitted == report.stats.queries_answered
    # check_answers verified every fully admitted block against the oracle;
    # the trajectory is visible per phase and ends back near the floor.
    assert report.phases[1].n_replicas_end > 2
    assert report.phases[-1].n_replicas_end == policy.min_replicas
