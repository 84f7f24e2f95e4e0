"""SLO specs, hot-swap tuning, and the online controller.

The load-bearing invariant: ``apply_tuning()`` changes *when batches
flush* and *what they cost*, never *what they answer*.  Every test that
retunes mid-stream checks answers against the binary-lifting oracle.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    AUTOSCALE_SIGNALS,
    SLO,
    WINDOW_BUCKETS_S,
    AutoscalePolicy,
    Controller,
    TuningDecision,
)
from repro.errors import Overloaded, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.obs.metrics import HistogramValue, histogram_quantile
from repro.service import (
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    LCAQueryService,
    MicroBatchScheduler,
    ServiceConfig,
    SimulatedClock,
)
from repro.workloads import make_scenario, replay


# ----------------------------------------------------------------------
# SLO spec
# ----------------------------------------------------------------------
class TestSLO:
    def test_requires_an_objective(self):
        with pytest.raises(ServiceError, match="at least one objective"):
            SLO()

    def test_bounds_validated(self):
        with pytest.raises(ServiceError):
            SLO(p99_latency_s=0.0)
        with pytest.raises(ServiceError):
            SLO(max_shed_rate=1.5)
        with pytest.raises(ServiceError):
            SLO(min_throughput_qps=-1.0)
        with pytest.raises(ServiceError):
            SLO(tenant_weights=(("a", 0.0),))
        with pytest.raises(ServiceError, match="duplicate"):
            SLO(tenant_weights=(("a", 1.0), ("a", 2.0)))

    def test_weight_of_defaults_to_one(self):
        # A tenant the SLO does not weigh keeps the global deadline, as the
        # lightest declared tenant does.
        slo = SLO(p99_latency_s=1e-3, tenant_weights=(("gold", 5.0), ("bronze", 1.0)))
        svc = LCAQueryService(config=ServiceConfig(max_batch_size=64, max_wait_s=5e-4))
        for seed, name in enumerate(("gold", "bronze", "unknown")):
            svc.register_tree(name, random_attachment_tree(100, seed=seed))
            svc.submit(name, 0, 1, at=0.0)
        Controller(slo, interval_s=0.0).observe(svc, 0.0)
        waits = {name: svc._scheduler(name).policy.max_wait_s
                 for name in ("gold", "bronze", "unknown")}
        assert waits["unknown"] == waits["bronze"] == svc.config.max_wait_s
        assert waits["gold"] == pytest.approx(waits["bronze"] / 5.0)
        svc.drain()

    def test_round_trip(self):
        slo = SLO(
            p99_latency_s=2e-4,
            max_shed_rate=0.05,
            min_throughput_qps=1e5,
            tenant_weights=(("a", 2.0), ("b", 1.0)),
        )
        assert SLO.from_dict(slo.to_dict()) == slo
        assert SLO.from_dict(json.loads(json.dumps(slo.to_dict()))) == slo

    def test_from_dict_normalizes_lists(self):
        slo = SLO.from_dict({"tenant_weights": [["a", 2], ["b", 1]]})
        assert slo.tenant_weights == (("a", 2.0), ("b", 1.0))

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ServiceError, match="unknown SLO"):
            SLO.from_dict({"p99": 1e-4})


# ----------------------------------------------------------------------
# AutoscalePolicy spec (same serialization contract as SLO)
# ----------------------------------------------------------------------
class TestAutoscalePolicy:
    def test_defaults_validate(self):
        policy = AutoscalePolicy()
        assert policy.signals == AUTOSCALE_SIGNALS
        assert policy.min_replicas <= policy.max_replicas

    def test_rejects_min_above_max(self):
        with pytest.raises(ServiceError, match="min_replicas"):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ServiceError, match="min_replicas"):
            AutoscalePolicy(min_replicas=0)

    def test_rejects_empty_signal_set(self):
        with pytest.raises(ServiceError, match="at least one signal"):
            AutoscalePolicy(signals=())

    def test_rejects_unknown_and_duplicate_signals(self):
        with pytest.raises(ServiceError, match="unknown"):
            AutoscalePolicy(signals=("shed", "cpu"))
        with pytest.raises(ServiceError, match="duplicate"):
            AutoscalePolicy(signals=("shed", "shed"))

    def test_rejects_non_positive_cooldowns(self):
        with pytest.raises(ServiceError, match="cooldown"):
            AutoscalePolicy(cooldown_out_s=0.0)
        with pytest.raises(ServiceError, match="cooldown"):
            AutoscalePolicy(cooldown_in_s=-1.0)

    def test_rejects_broken_hysteresis(self):
        # Every signal pair needs calm strictly below breach, selected or not:
        # a policy that would start flapping the moment its signal set is
        # widened is rejected up front.
        with pytest.raises(ServiceError, match="hysteresis"):
            AutoscalePolicy(signals=("shed",), shed_out=0.1, shed_in=0.1)
        with pytest.raises(ServiceError, match="hysteresis"):
            AutoscalePolicy(signals=("p99",), p99_out_s=1e-4, p99_in_s=2e-4)
        with pytest.raises(ServiceError, match="hysteresis"):
            AutoscalePolicy(signals=("queue",), shed_out=0.0, shed_in=0.0)
        with pytest.raises(ServiceError, match="non-negative"):
            AutoscalePolicy(signals=("queue",), queue_in=-0.5)

    def test_rejects_bad_steps(self):
        with pytest.raises(ServiceError, match="steps"):
            AutoscalePolicy(step_out=0)
        with pytest.raises(ServiceError, match="steps"):
            AutoscalePolicy(step_in=-2)

    def test_round_trip(self):
        policy = AutoscalePolicy(
            min_replicas=2,
            max_replicas=6,
            signals=("queue", "p99"),
            queue_out=0.9,
            queue_in=0.2,
            p99_out_s=1e-3,
            p99_in_s=1e-4,
            cooldown_out_s=1e-3,
            cooldown_in_s=5e-3,
            step_out=2,
            step_in=1,
        )
        assert AutoscalePolicy.from_dict(json.loads(json.dumps(policy.to_dict()))) == policy

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ServiceError, match="unknown"):
            AutoscalePolicy.from_dict({"replicas": 3})

    @settings(max_examples=50, deadline=None)
    @given(
        min_replicas=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
        signals=st.sets(
            st.sampled_from(AUTOSCALE_SIGNALS), min_size=1
        ).map(lambda s: tuple(sorted(s))),
        shed=st.tuples(
            st.floats(min_value=0.0, max_value=0.5),
            st.floats(min_value=1e-3, max_value=0.5),
        ),
        queue=st.tuples(
            st.floats(min_value=0.0, max_value=0.9),
            st.floats(min_value=1e-3, max_value=1.0),
        ),
        p99=st.tuples(
            st.floats(min_value=0.0, max_value=1e-3),
            st.floats(min_value=1e-6, max_value=1e-2),
        ),
        cooldowns=st.tuples(
            st.floats(min_value=1e-6, max_value=1.0),
            st.floats(min_value=1e-6, max_value=1.0),
        ),
        steps=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
    )
    def test_json_round_trip_property(
        self, min_replicas, extra, signals, shed, queue, p99, cooldowns, steps
    ):
        policy = AutoscalePolicy(
            min_replicas=min_replicas,
            max_replicas=min_replicas + extra,
            signals=signals,
            shed_in=shed[0],
            shed_out=shed[0] + shed[1],
            queue_in=queue[0],
            queue_out=queue[0] + queue[1],
            p99_in_s=p99[0],
            p99_out_s=p99[0] + p99[1],
            cooldown_out_s=cooldowns[0],
            cooldown_in_s=cooldowns[1],
            step_out=steps[0],
            step_in=steps[1],
        )
        assert AutoscalePolicy.from_dict(json.loads(json.dumps(policy.to_dict()))) == policy


# ----------------------------------------------------------------------
# Scheduler retune: the flush-boundary contract
# ----------------------------------------------------------------------
class TestSchedulerRetune:
    def test_shrunk_batch_size_flushes_complete_batches(self):
        clock = SimulatedClock()
        sched = MicroBatchScheduler(
            BatchPolicy(max_batch_size=100, max_wait_s=1.0), clock=clock
        )
        for i in range(7):
            sched.submit(i, 0, 1, at=0.0)
        flushed = sched.retune(BatchPolicy(max_batch_size=3, max_wait_s=1.0))
        assert [b.size for b in flushed] == [3, 3]
        assert all(b.trigger == "size" for b in flushed)
        assert len(sched.pending) == 1

    def test_shrunk_wait_flushes_overdue_batches(self):
        clock = SimulatedClock()
        sched = MicroBatchScheduler(
            BatchPolicy(max_batch_size=100, max_wait_s=1.0), clock=clock
        )
        sched.submit(0, 0, 1, at=0.0)
        clock.advance(0.5)
        flushed = sched.retune(
            BatchPolicy(max_batch_size=100, max_wait_s=0.1)
        )
        assert [b.trigger for b in flushed] == ["wait"]
        # The batch flushes at its new (past) deadline, not at now.
        assert flushed[0].flush_s == pytest.approx(0.1)

    def test_noop_retune_flushes_nothing(self):
        sched = MicroBatchScheduler(
            BatchPolicy(max_batch_size=10, max_wait_s=1.0)
        )
        sched.submit(0, 0, 1, at=0.0)
        assert sched.retune(BatchPolicy(max_batch_size=10, max_wait_s=1.0)) == []
        assert len(sched.pending) == 1


# ----------------------------------------------------------------------
# apply_tuning on both services
# ----------------------------------------------------------------------
class TestApplyTuning:
    def _tree(self, n=200, seed=3):
        return random_attachment_tree(n, seed=seed)

    def test_service_swaps_policy_and_flushes(self):
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=100, max_wait_s=1.0)
        )
        parents = self._tree()
        svc.register_tree("t", parents)
        tickets = [svc.submit("t", 2 * i, 2 * i + 1, at=1e-6 * i) for i in range(5)]
        cfg = svc.apply_tuning(max_batch_size=2, max_wait_s=1e-4)
        assert cfg.max_batch_size == 2
        assert svc.policy == BatchPolicy(max_batch_size=2, max_wait_s=1e-4)
        # Two size-complete pairs were forced out and served.
        assert sum(svc.answered(np.array(tickets))) == 4
        svc.drain()
        oracle = BinaryLiftingLCA(parents)
        xs = np.array([2 * i for i in range(5)])
        ys = np.array([2 * i + 1 for i in range(5)])
        assert np.array_equal(svc.results(np.array(tickets)), oracle.query(xs, ys))

    def test_service_noop_returns_config(self):
        svc = LCAQueryService()
        assert svc.apply_tuning() is svc.config

    def test_service_lane_overrides_one_dataset(self):
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=64, max_wait_s=1e-3)
        )
        svc.register_tree("a", self._tree(seed=1))
        svc.register_tree("b", self._tree(seed=2))
        svc.submit("a", 0, 1, at=0.0)
        svc.submit("b", 0, 1, at=0.0)
        svc.apply_tuning(dataset="a", max_wait_s=1e-5)
        assert svc._scheduler("a").policy.max_wait_s == 1e-5
        assert svc._scheduler("b").policy.max_wait_s == 1e-3
        # The global config is untouched by a lane override.
        assert svc.config.max_wait_s == 1e-3
        # A global swap resets every lane.
        svc.apply_tuning(max_wait_s=5e-4)
        assert svc._scheduler("a").policy.max_wait_s == 5e-4
        svc.drain()

    def test_cluster_global_swap_reaches_replicas_and_new_ones(self):
        cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        cluster.register_tree("t", self._tree())
        cfg = cluster.apply_tuning(max_batch_size=32, max_wait_s=2e-4)
        assert cfg.max_batch_size == 32
        assert all(
            w.policy == BatchPolicy(max_batch_size=32, max_wait_s=2e-4)
            for w in cluster.replicas
        )
        rid = cluster.add_replica()
        assert cluster.replicas[rid].policy.max_batch_size == 32

    def test_cluster_max_pending_takes_effect(self):
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, max_pending=4)
        )
        cluster.register_tree("t", self._tree())
        cluster.apply_tuning(max_pending=1000)
        assert cluster.config.max_pending == 1000
        xs = np.arange(100, dtype=np.int64)
        cluster.submit_many("t", xs, xs + 1, at=np.zeros(100))  # no Overloaded
        cluster.drain()

    def test_cluster_hedging_can_turn_on_mid_run(self):
        cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        assert cluster.config.hedge_delay_s is None
        cluster.apply_tuning(hedge_delay_s=1e-3)
        assert cluster.config.hedge_delay_s == 1e-3
        assert all(w._hedge_hook is not None for w in cluster.replicas)

    def test_cluster_dataset_scope_rejects_cluster_knobs(self):
        cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        cluster.register_tree("t", self._tree())
        with pytest.raises(ServiceError, match="cluster-wide"):
            cluster.apply_tuning(dataset="t", max_pending=10)

    def test_tuning_validates_through_config(self):
        svc = LCAQueryService()
        with pytest.raises(ServiceError):
            svc.apply_tuning(max_batch_size=0)


# ----------------------------------------------------------------------
# Exactness under retuning (the hypothesis property)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),  # retune after N queries
            st.sampled_from([1, 2, 8, 64, 1024]),  # new max_batch_size
            st.sampled_from([2e-5, 1e-4, 1e-3, 1e-2]),  # new max_wait_s
        ),
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_retuning_never_changes_answers(schedule, seed):
    rng = np.random.default_rng(seed)
    parents = random_attachment_tree(300, seed=seed)
    svc = LCAQueryService(
        config=ServiceConfig(max_batch_size=256, max_wait_s=1e-3)
    )
    svc.register_tree("t", parents)
    n = 150
    xs = rng.integers(0, 300, size=n)
    ys = rng.integers(0, 300, size=n)
    at = np.cumsum(rng.exponential(2e-5, size=n))
    tickets = []
    cursor = 0
    pending = list(schedule)
    next_retune = pending.pop(0) if pending else None
    while cursor < n:
        step = next_retune[0] if next_retune else n - cursor
        stop = min(n, cursor + step)
        tickets.append(
            svc.submit_many("t", xs[cursor:stop], ys[cursor:stop], at=at[cursor:stop])
        )
        cursor = stop
        if next_retune is not None:
            svc.apply_tuning(
                max_batch_size=next_retune[1], max_wait_s=next_retune[2]
            )
            next_retune = pending.pop(0) if pending else None
    svc.drain()
    oracle = BinaryLiftingLCA(parents)
    assert np.array_equal(
        svc.results(np.concatenate(tickets)), oracle.query(xs, ys)
    )


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class TestController:
    def test_rejects_bad_parameters(self):
        slo = SLO(p99_latency_s=1e-4)
        with pytest.raises(ServiceError):
            Controller(slo, interval_s=-1.0)
        with pytest.raises(ServiceError):
            Controller(slo, min_batch_size=0)
        with pytest.raises(ServiceError):
            Controller(slo, wait_fraction=0.0)
        with pytest.raises(ServiceError, match="min_batch_size"):
            Controller(slo, min_batch_size=64, max_batch_size=32)
        for fraction in (float("nan"), 1.5):
            with pytest.raises(ServiceError, match="wait_fraction"):
                Controller(slo, wait_fraction=fraction)

    def test_interval_gates_observations(self):
        svc = LCAQueryService()
        ctl = Controller(SLO(p99_latency_s=1e-4), interval_s=1e-3)
        assert ctl.observe(svc, 0.0) is not None  # deadline clamp fires
        assert ctl.observe(svc, 5e-4) is None  # inside the interval
        assert len(ctl.decisions) == 1

    def test_deadline_clamp_bounds_wait_by_budget(self):
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=64, max_wait_s=1e-2)
        )
        ctl = Controller(
            SLO(p99_latency_s=2e-4), interval_s=0.0, wait_fraction=0.5
        )
        decision = ctl.observe(svc, 0.0)
        assert "deadline-clamp" in decision.reason
        assert svc.config.max_wait_s == pytest.approx(1e-4)

    def test_p99_violation_backs_off(self):
        parents = random_attachment_tree(500, seed=1)
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=2048, max_wait_s=5e-4)
        )
        svc.register_tree("t", parents)
        # Queue a big slow batch so recorded latencies blow the bound.
        xs = np.arange(2000) % 500
        svc.submit_many("t", xs, (xs + 7) % 500, at=np.full(2000, 0.0))
        svc.drain()
        ctl = Controller(SLO(p99_latency_s=1e-6), interval_s=0.0)
        decision = ctl.observe(svc, svc.clock.now)
        assert "p99" in decision.reason
        assert decision.max_batch_size < 2048
        assert decision.window_p99_s > 1e-6

    def test_shed_violation_bulks_up_and_raises_admission(self):
        parents = random_attachment_tree(200, seed=2)
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, max_batch_size=64,
                                 max_wait_s=1e-4, max_pending=8)
        )
        cluster.register_tree("t", parents)
        xs = np.arange(64, dtype=np.int64) % 200
        with pytest.raises(Exception):  # Overloaded: floods the tiny queue
            cluster.submit_many("t", xs, xs + 1, at=np.zeros(64))
        ctl = Controller(
            SLO(p99_latency_s=1.0, max_shed_rate=0.01), interval_s=0.0
        )
        decision = ctl.observe(cluster, cluster.clock.now)
        assert "shed" in decision.reason
        assert decision.max_batch_size == 128
        assert decision.max_pending == 12  # 8 * 3 // 2
        assert cluster.config.max_pending == 12

    def test_probe_grows_batch_under_deep_headroom(self):
        parents = random_attachment_tree(200, seed=3)
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=64, max_wait_s=4e-5)
        )
        svc.register_tree("t", parents)
        svc.submit_many(
            "t",
            np.arange(32, dtype=np.int64),
            np.arange(32, dtype=np.int64) + 1,
            at=np.linspace(0.0, 1e-5, 32),
        )
        svc.drain()
        ctl = Controller(SLO(p99_latency_s=10.0), interval_s=0.0)
        decision = ctl.observe(svc, svc.clock.now)
        assert decision is not None and "probe" in decision.reason
        assert decision.max_batch_size == 128

    def test_priority_lanes_shorten_heavy_tenants(self):
        slo = SLO(
            p99_latency_s=1e-3,
            tenant_weights=(("gold", 5.0), ("bronze", 1.0)),
        )
        svc = LCAQueryService(
            config=ServiceConfig(max_batch_size=64, max_wait_s=5e-4)
        )
        svc.register_tree("gold", random_attachment_tree(100, seed=4))
        svc.register_tree("bronze", random_attachment_tree(100, seed=5))
        svc.submit("gold", 0, 1, at=0.0)
        svc.submit("bronze", 0, 1, at=0.0)
        ctl = Controller(slo, interval_s=0.0)
        ctl.observe(svc, 0.0)
        gold = svc._scheduler("gold").policy.max_wait_s
        bronze = svc._scheduler("bronze").policy.max_wait_s
        assert gold == pytest.approx(bronze / 5.0)
        assert bronze <= svc.config.max_wait_s
        svc.drain()

    def test_controlled_replay_verifies_against_oracle(self):
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=3, max_pending=4096)
        )
        ctl = Controller(
            SLO(p99_latency_s=3e-4, max_shed_rate=0.05), interval_s=2e-3
        )
        report = replay(
            cluster,
            make_scenario("diurnal", scale=0.15),
            check_answers=True,  # raises if any answer deviates
            controller=ctl,
        )
        assert report.queries_admitted > 0
        assert ctl.decisions  # the controller actually moved

    def test_decisions_are_recorded_with_measurements(self):
        svc = LCAQueryService()
        ctl = Controller(SLO(p99_latency_s=1e-4), interval_s=0.0)
        decision = ctl.observe(svc, 0.0)
        assert isinstance(decision, TuningDecision)
        assert decision.window_shed_rate == 0.0
        assert ctl.decisions == [decision]

    def test_window_buckets_are_ascending(self):
        assert list(WINDOW_BUCKETS_S) == sorted(WINDOW_BUCKETS_S)


# ----------------------------------------------------------------------
# Window signals: the controller's counters against stats() snapshots
# ----------------------------------------------------------------------
class WindowLog(Controller):
    """A controller that keeps every window it measured, in order.

    Its SLO has no latency bound and a throughput floor nothing misses, so
    no rule fires and the run is the one the reference watches.
    """

    def __init__(self):
        super().__init__(SLO(min_throughput_qps=1e-9), interval_s=0.0)
        self.windows = []

    def _window(self, target, now_s):
        window = super()._window(target, now_s)
        self.windows.append(window)
        return window


class StatsReference:
    """The window signals rebuilt from two consecutive ``stats()`` snapshots.

    Each worker's new latencies are its latency log between the previous and
    the current snapshot's ``queries_answered`` (a worker the previous
    snapshot did not have starts at 0); they are bucketed by hand.
    """

    def __init__(self):
        self.answered = []
        self.totals = (0, 0, 0)
        self.at_s = None

    def window(self, target, now_s):
        stats = target.stats()
        if isinstance(target, ClusterService):
            workers, per = target.replicas, stats.replicas
            totals = (stats.queries_answered, stats.queries_offered,
                      stats.queries_shed)
        else:
            workers, per = (target,), (stats,)
            totals = (stats.queries_answered, stats.queries_answered, 0)
        before = self.answered + [0] * (len(per) - len(self.answered))
        new = np.concatenate([
            worker.stats_collector.latency_values[start:snap.queries_answered]
            for worker, snap, start in zip(workers, per, before)])
        counts = np.bincount(np.searchsorted(WINDOW_BUCKETS_S, new, "left"),
                             minlength=len(WINDOW_BUCKETS_S) + 1)
        p99 = histogram_quantile(
            HistogramValue(tuple(int(c) for c in counts), float(new.sum()),
                           int(new.size)),
            0.99, buckets=WINDOW_BUCKETS_S)
        answered, offered, shed = (a - b for a, b in zip(totals, self.totals))
        shed_rate = shed / offered if offered > 0 else 0.0
        throughput = (None if self.at_s is None or now_s <= self.at_s
                      else answered / (now_s - self.at_s))
        self.answered = [snap.queries_answered for snap in per]
        self.totals, self.at_s = totals, now_s
        return p99, shed_rate, throughput, answered


def observe_both(ctl, reference, target):
    """One observation; the reference reads first (a retune may flush)."""
    now = target.clock.now
    expected = reference.window(target, now)
    ctl.observe(target, now)
    assert ctl.windows[-1] == expected
    return expected


class TestWindowSignals:
    """Every window's p99, shed rate, throughput and answered count equal
    the ``stats()`` reference bit for bit.  The cases catch these mutations
    of ``Controller._window``:

    * counting retried re-admissions as offered (the cluster sheds in the
      window its kill strands work);
    * dropping the first window of a replica added mid-run;
    * re-reading consumed latencies;
    * bucketing with ``side="right"`` (the single node's first window is one
      latency that sits exactly on a bucket bound).
    """

    def test_cluster_that_sheds_retries_and_scales_out(self):
        parents = random_attachment_tree(400, seed=21)
        xs, ys = generate_random_queries(400, 4000, seed=22)
        arrivals = np.arange(xs.size, dtype=np.float64) / 400_000.0
        kill_s = float(arrivals[1230])  # mid-chunk: work is queued on it
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=3, max_batch_size=32,
                                 max_wait_s=1e-4, max_pending=48),
            fault_injector=FaultInjector([
                FaultEvent(time_s=kill_s, action="kill", replica=1),
                FaultEvent(time_s=kill_s + 1e-3, action="recover", replica=1),
            ]),
        )
        cluster.register_tree("t", parents, replicas=0)
        ctl, reference = WindowLog(), StatsReference()
        retried, windows = 0, []
        for chunk, start in enumerate(range(0, xs.size, 100)):
            if chunk == 20:
                cluster.apply_tuning(n_replicas=4)
            stop = start + 100
            try:
                cluster.submit_many("t", xs[start:stop], ys[start:stop],
                                    at=arrivals[start:stop])
            except Overloaded:
                pass
            if chunk % 2:
                window = observe_both(ctl, reference, cluster)
                now_retried = cluster.stats().queries_retried
                windows.append((window, now_retried - retried))
                retried = now_retried
        cluster.drain()
        observe_both(ctl, reference, cluster)

        assert len(cluster.replicas) == 4
        added = cluster.replicas[3].stats_collector
        assert 0 < added.queries_answered < cluster.stats().queries_answered
        # Retries land in a window that also sheds, so offered must not
        # count a re-admission.
        assert any(window[1] > 0 and moved for window, moved in windows)
        assert not ctl.decisions

    def test_single_node_with_a_latency_on_a_bucket_bound(self):
        parents = random_attachment_tree(300, seed=7)

        def service(max_wait_s):
            svc = LCAQueryService(config=ServiceConfig(max_batch_size=64,
                                                       max_wait_s=max_wait_s))
            svc.register_tree("t", parents)
            svc.warm("t")
            return svc

        # A lone query that waits out max_wait_s completes at max_wait_s +
        # its service time, which a flush-on-arrival probe measures.
        probe = service(0.0)
        lone = probe.submit("t", 5, 9, at=0.0)
        probe.drain()
        bound = WINDOW_BUCKETS_S[3]
        svc = service(bound - probe.latency(lone))
        lone = svc.submit("t", 5, 9, at=0.0)
        svc.advance_to(2 * bound)
        assert svc.latency(lone) == bound

        ctl, reference = WindowLog(), StatsReference()
        assert observe_both(ctl, reference, svc)[3] == 1
        xs, ys = generate_random_queries(300, 2000, seed=8)
        arrivals = 1e-4 + np.arange(xs.size, dtype=np.float64) / 300_000.0
        for start in range(0, xs.size, 250):
            stop = start + 250
            svc.submit_many("t", xs[start:stop], ys[start:stop],
                            at=arrivals[start:stop])
            observe_both(ctl, reference, svc)
        svc.drain()
        observe_both(ctl, reference, svc)
        assert len(ctl.windows) == 10
        assert not ctl.decisions
