"""Autoscaling harness: the ``n_replicas`` knob under a reactive policy.

The contracts under test are the ones ``docs/autoscaling.md`` documents:

- an autoscaled replay answers exactly what a static one answers — scale
  events never change an answer and never lose an admitted query
  (oracle-checked end to end);
- decisions are deterministic: the same scenario, seed and policy produce
  a bit-identical :class:`~repro.control.TuningDecision` log and
  :class:`~repro.service.ClusterStats`;
- a policy that cannot fire is a provable no-op — the lifecycle trace is
  bit-identical to running without one;
- cooldowns and hysteresis suppress flapping, and live-copy safety can
  refuse a scale-in (the controller skips the refusal silently).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import SLO, AutoscalePolicy, Controller
from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.obs import TraceRecorder
from repro.obs.events import EV_SCALE
from repro.service import ClusterConfig, ClusterService
from repro.workloads import Phase, PoissonArrivals, Scenario, TrafficSource, replay

POLICY = {"max_batch_size": 64, "max_wait_s": 1e-4}

#: Fires on any window that answered anything: every admitted query's
#: modeled latency clears 0.1 µs, so the first post-anchor window breaches.
ALWAYS_OUT = AutoscalePolicy(
    min_replicas=1,
    max_replicas=6,
    signals=("p99",),
    p99_out_s=1e-7,
    p99_in_s=1e-8,
    cooldown_out_s=1e-3,
    cooldown_in_s=10.0,
    step_out=2,
)

#: Never fires upward (a 10 s p99 bound) and sees every window as calm.
ALWAYS_IN = AutoscalePolicy(
    min_replicas=2,
    max_replicas=8,
    signals=("p99",),
    p99_out_s=10.0,
    p99_in_s=5.0,
    cooldown_out_s=1e-3,
    cooldown_in_s=2e-3,
    step_in=2,
)


def flash_scenario(*, seed=0):
    return Scenario(
        name="autoscale-test",
        sources=(TrafficSource("t", nodes=512, tree_seed=seed),),
        phases=(
            Phase("calm", PoissonArrivals(50_000.0), 0.02),
            Phase("flash", PoissonArrivals(400_000.0), 0.01),
            Phase("recovery", PoissonArrivals(50_000.0), 0.02),
        ),
        seed=seed,
    )


def calm_scenario(*, seed=0):
    return Scenario(
        name="autoscale-calm",
        sources=(TrafficSource("t", nodes=512, tree_seed=seed),),
        phases=(Phase("calm", PoissonArrivals(50_000.0), 0.03),),
        seed=seed,
    )


def autoscaled_replay(scenario, n_replicas, autoscale, *, observer=None):
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=n_replicas, max_pending=4096, **POLICY)
    )
    cluster.attach_observer(observer)
    controller = Controller(
        SLO(p99_latency_s=1.0), interval_s=1e-3, autoscale=autoscale
    )
    report = replay(
        cluster,
        scenario,
        admission_window_s=1e-3,
        check_answers=True,
        controller=controller,
    )
    return cluster, controller, report


def membership(controller):
    return [d for d in controller.decisions if d.kind == "membership"]


# ----------------------------------------------------------------------
# Oracle-checked autoscaled replays
# ----------------------------------------------------------------------


def test_scale_out_replay_matches_oracle_and_loses_nothing():
    cluster, controller, report = autoscaled_replay(
        flash_scenario(), 1, ALWAYS_OUT
    )
    moves = membership(controller)
    assert moves and all(d.reason.startswith("scale-out") for d in moves)
    assert cluster.n_active == ALWAYS_OUT.max_replicas
    # check_answers already verified every fully admitted block against
    # the oracle; on top of that, nothing admitted may go missing.
    assert report.queries_shed == 0
    assert report.queries_admitted == report.stats.queries_answered
    # The per-phase trajectory lands where the cluster did.
    assert report.phases[-1].n_replicas_end == cluster.n_active
    assert all(
        ALWAYS_OUT.min_replicas <= d.n_replicas <= ALWAYS_OUT.max_replicas
        for d in moves
    )


def test_scale_in_returns_to_floor_without_losing_queries():
    observer = TraceRecorder()
    cluster, controller, report = autoscaled_replay(
        calm_scenario(), 8, ALWAYS_IN, observer=observer
    )
    moves = membership(controller)
    assert moves and all(d.reason == "scale-in" for d in moves)
    # Retirements drain before leaving: every admitted query is answered.
    assert report.queries_admitted == report.stats.queries_answered
    assert cluster.n_active == ALWAYS_IN.min_replicas
    # Each membership decision rode one EV_SCALE row on the shared trace.
    scale_rows = observer.table().of_kind(EV_SCALE)
    assert len(scale_rows) == len(moves)


# ----------------------------------------------------------------------
# Determinism and the no-op policy
# ----------------------------------------------------------------------


def test_same_scenario_seed_policy_is_bit_identical():
    runs = [
        autoscaled_replay(flash_scenario(seed=3), 1, ALWAYS_OUT)
        for _ in range(2)
    ]
    (cluster_a, ctl_a, report_a), (cluster_b, ctl_b, report_b) = runs
    assert ctl_a.decisions == ctl_b.decisions
    assert cluster_a.stats() == cluster_b.stats()
    assert report_a.phases == report_b.phases


def test_unfireable_policy_is_bit_identical_to_no_policy():
    # min == max pins membership; thresholds that cannot fire do the rest.
    frozen = AutoscalePolicy(
        min_replicas=2,
        max_replicas=2,
        signals=("p99",),
        p99_out_s=10.0,
        p99_in_s=5.0,
    )
    with_policy = TraceRecorder()
    without = TraceRecorder()
    cluster_a, ctl_a, _ = autoscaled_replay(
        flash_scenario(), 2, frozen, observer=with_policy
    )
    cluster_b, ctl_b, _ = autoscaled_replay(
        flash_scenario(), 2, None, observer=without
    )
    assert not membership(ctl_a)
    assert with_policy.table().equals(without.table())
    assert cluster_a.stats() == cluster_b.stats()
    # Knob decisions (the controller's other job) stay identical too.
    assert ctl_a.decisions == ctl_b.decisions


# ----------------------------------------------------------------------
# Edge cases: flush boundaries, live-copy safety, flap suppression
# ----------------------------------------------------------------------


def _direct_cluster(parents, n_replicas, *, observer=None, **knobs):
    cluster = ClusterService(config=ClusterConfig(n_replicas=n_replicas, **knobs))
    cluster.attach_observer(observer)
    cluster.register_tree("t", parents, replicas=0)
    return cluster


def test_scale_at_flush_boundary_preserves_answers():
    parents = random_attachment_tree(256, seed=7)
    xs, ys = generate_random_queries(256, 40, seed=8)
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    observer = TraceRecorder()
    cluster = _direct_cluster(
        parents, 2, max_batch_size=64, max_wait_s=1e-3, observer=observer
    )
    # A held batch flushes exactly at its wait deadline; scaling at that
    # same instant must neither lose it nor re-route it mid-flight.
    t0 = cluster.submit_many("t", xs[:20], ys[:20], at=np.zeros(20))
    cluster.advance_to(1e-3)
    cluster.scale_to(4)
    t1 = cluster.submit_many(
        "t", xs[20:], ys[20:], at=np.full(20, cluster.clock.now)
    )
    cluster.advance_to(cluster.clock.now + 1e-3)
    cluster.scale_to(1)
    cluster.drain()
    tickets = np.concatenate([t0, t1])
    np.testing.assert_array_equal(cluster.results(tickets), expected)
    stats = cluster.stats()
    assert stats.queries_answered == 40
    # 2 adds growing to 4, then 3 retirements shrinking to 1.
    assert stats.membership_events == 5
    assert len(observer.table().of_kind(EV_SCALE)) == 2


def test_scale_in_refuses_to_drop_sole_live_copy():
    parents = np.array([-1, 0, 0, 1])
    cluster = ClusterService(config=ClusterConfig(n_replicas=2, **POLICY))
    cluster.register_tree("a", parents, on=[0])
    cluster.register_tree("b", parents, on=[1])
    with pytest.raises(ServiceError, match="live copy"):
        cluster.scale_to(1)
    assert cluster.n_active == 2


def test_controller_skips_refused_scale_in_silently():
    parents = np.array([-1, 0, 0, 1])
    cluster = ClusterService(config=ClusterConfig(n_replicas=2, **POLICY))
    cluster.register_tree("a", parents, on=[0])
    cluster.register_tree("b", parents, on=[1])
    calm = AutoscalePolicy(
        min_replicas=1,
        max_replicas=4,
        signals=("queue",),
        queue_out=0.9,
        queue_in=0.5,
        cooldown_in_s=1e-3,
    )
    controller = Controller(
        SLO(p99_latency_s=100.0), interval_s=0.0, autoscale=calm
    )
    controller.observe(cluster, 0.0)  # anchors the cooldowns
    controller.observe(cluster, 1.0)  # calm, past cooldown: tries to shrink
    assert not membership(controller)
    assert cluster.n_active == 2


def test_cooldown_and_hysteresis_suppress_flapping():
    parents = random_attachment_tree(256, seed=11)
    xs, ys = generate_random_queries(256, 110, seed=12)
    # Nothing flushes on its own: occupancy is exactly what we queue.
    cluster = _direct_cluster(
        parents, 2, max_batch_size=1000, max_wait_s=10.0, max_pending=100
    )
    policy = AutoscalePolicy(
        min_replicas=1,
        max_replicas=8,
        signals=("queue",),
        queue_out=0.5,
        queue_in=0.1,
        cooldown_out_s=1.0,
        cooldown_in_s=20.0,
    )
    controller = Controller(
        SLO(p99_latency_s=100.0), interval_s=0.0, autoscale=policy
    )
    controller.observe(cluster, 0.0)  # anchor
    cluster.submit_many("t", xs[:80], ys[:80], at=np.zeros(80))
    controller.observe(cluster, 0.1)  # breached, but inside the cooldown
    assert not membership(controller)
    controller.observe(cluster, 1.2)  # breached, past the cooldown: out
    assert [d.n_replicas for d in membership(controller)] == [3]
    controller.observe(cluster, 1.3)  # still breached: cooldown holds
    assert len(membership(controller)) == 1
    cluster.drain()
    now = cluster.clock.now
    controller.observe(cluster, now + 2.0)  # calm, inside the in-cooldown
    assert len(membership(controller)) == 1
    controller.observe(cluster, now + 25.0)  # calm, past it: in
    moves = membership(controller)
    assert [d.n_replicas for d in moves] == [3, 2]
    assert moves[0].reason == "scale-out:queue" and moves[1].reason == "scale-in"
    # Occupancy inside the hysteresis band moves nothing, either way.
    cluster.submit_many(
        "t", xs[80:], ys[80:], at=np.full(30, cluster.clock.now)
    )
    controller.observe(cluster, now + 50.0)
    assert len(membership(controller)) == 2
    cluster.drain()
    assert cluster.n_active == 2
    assert cluster.stats().membership_events == 2


# ----------------------------------------------------------------------
# Property: scale sequences never change answers
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    targets=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_scale_sequence_preserves_answers(targets, seed):
    parents = random_attachment_tree(300, seed=seed)
    xs, ys = generate_random_queries(300, 240, seed=seed + 1)
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    arrivals = np.arange(240, dtype=np.float64) / 200_000.0
    cluster = _direct_cluster(parents, 2, **POLICY)
    chunk = 40
    tickets = []
    for i, lo in enumerate(range(0, 240, chunk)):
        block = slice(lo, lo + chunk)
        # A retirement drains its victim, which can move the shared clock
        # past the next scripted arrival — late arrivals submit "now".
        at = np.maximum(arrivals[block], cluster.clock.now)
        tickets.append(cluster.submit_many("t", xs[block], ys[block], at=at))
        cluster.scale_to(targets[i % len(targets)])
    cluster.drain()
    np.testing.assert_array_equal(
        cluster.results(np.concatenate(tickets)), expected
    )
    stats = cluster.stats()
    assert stats.queries_answered == 240
    assert cluster.pending_count() == 0
    assert cluster.n_active == targets[(240 // chunk - 1) % len(targets)]
