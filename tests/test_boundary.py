"""Every front door refuses the same inputs, with a :mod:`repro.errors` type.

The sweeps call public entry points only: the service and cluster front doors,
``register_tree``, the index constructors and their ``.query``, ``EdgeList``,
``list_rank``, the RMQ structures, ticket read-back, the clocks and the
configuration objects.  The schema they share is :mod:`repro.boundary`.
"""

import json
import math

import numpy as np
import pytest

from repro import boundary
from repro.backends import calibrate_backends
from repro.control import SLO, AutoscalePolicy, Controller
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.graphs.edgelist import EdgeList
from repro.lca import (
    RMQLCA,
    BinaryLiftingLCA,
    InlabelLCA,
    NaiveGPULCA,
    SequentialInlabelLCA,
    build_inlabel_index,
    dedup_query_pairs,
)
from repro.lca.artifacts import ARTIFACT_BUILDERS
from repro.primitives import SegmentTreeRMQ, SparseTableRMQ, list_rank
from repro.service import (
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    FaultEvent,
    ServiceConfig,
    SimulatedClock,
)
from repro.experiments import scenario_suite
from repro.workloads import (
    DeterministicArrivals,
    PoissonArrivals,
    RetryPolicy,
    make_chaos_scenario,
    make_scenario,
    replay,
    replay_chaos,
)

PARENTS = np.array([-1, 0, 0, 1, 1, 2])

#: Each way an integer-id array is not one: a cast would have taken all but
#: the last two.
NOT_ID_ARRAYS = {
    "float": np.array([1.0, 2.0]),
    "bool": np.array([True, False]),
    "object": np.array([1, 2], dtype=object),
    "str": np.array(["1", "2"]),
    "ragged": [[1, 2], [3]],
    "2-D": np.array([[1, 2], [3, 4]]),
}
#: Each way an instant or a duration is not a finite number of seconds.
NOT_SECONDS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "str": "1",
}
#: Each way a count is not an integer.
NOT_COUNTS = {"nan": math.nan, "2.5": 2.5, "bool": True, "str": "1"}


def controller(**knobs):
    return Controller(SLO(p99_latency_s=1e-3), **knobs)


def calibrate(**knobs):
    return calibrate_backends(
        ["gpu"], **{"batch_sizes": (1, 2), "n_nodes": 64, **knobs}
    )


def calibration_grid(batch_sizes):
    return calibrate(batch_sizes=(1, batch_sizes))


def service():
    target = LCAQueryService()
    target.register_tree("t", PARENTS)
    return target


def cluster():
    target = ClusterService(config=ClusterConfig(n_replicas=2))
    target.register_tree("t", PARENTS)
    return target


def read_back(target, read, tickets):
    """``target.<read>(tickets)`` once tickets 0 and 1 are answered."""
    target.submit_many("t", [3, 5], [4, 4])
    target.drain()
    return getattr(target, read)(tickets)


INDEXES = [InlabelLCA, SequentialInlabelLCA, BinaryLiftingLCA, NaiveGPULCA, RMQLCA]
GOOD = np.array([3, 4])


def id_array_entries():
    """``(name, call)``: one public integer-array parameter each."""
    yield "service.submit_many", lambda bad: service().submit_many("t", bad, GOOD)
    yield "service.submit_many ys", lambda bad: service().submit_many("t", GOOD, bad)
    yield "cluster.submit_many", lambda bad: cluster().submit_many("t", bad, GOOD)
    yield "cluster.submit_many ys", lambda bad: cluster().submit_many("t", GOOD, bad)
    yield "service.register_tree", lambda bad: LCAQueryService().register_tree("u", bad)
    yield "cluster.register_tree", lambda bad: cluster().register_tree("u", bad)
    for index in INDEXES:
        yield f"{index.__name__}()", index
    yield "build_inlabel_index", build_inlabel_index
    yield "EdgeList u", lambda bad: EdgeList(bad, GOOD, 6)
    yield "EdgeList v", lambda bad: EdgeList(GOOD, bad, 6)
    yield "EdgeList.relabeled", lambda bad: EdgeList(GOOD, GOOD + 1, 6).relabeled(bad)
    yield "list_rank", lambda bad: list_rank(bad, 0)
    for rmq in (SegmentTreeRMQ, SparseTableRMQ):
        table = rmq(np.arange(6), "min")
        yield f"{rmq.__name__}.query lo", lambda bad, t=table: t.query(bad, [2, 3])
        yield f"{rmq.__name__}.query hi", lambda bad, t=table: t.query([0, 1], bad)
    for front_door in (service, cluster):
        for read in ("results", "latencies"):
            name = f"{front_door.__name__}.{read}"
            yield name, lambda bad, f=front_door, r=read: read_back(f(), r, bad)


def query_entries():
    """``(name, call)``: an index's query columns (scalars or 1-D)."""
    for index in INDEXES:
        lca = index(PARENTS)
        yield f"{index.__name__}.query", lambda bad, q=lca.query: q(bad, GOOD)
        yield f"{index.__name__}.query ys", lambda bad, q=lca.query: q(GOOD, bad)
    view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(PARENTS))
    yield "kernel.query", lambda bad: view.query(bad, GOOD)
    yield "dedup_query_pairs", lambda bad: dedup_query_pairs(bad, GOOD)


@pytest.mark.parametrize("case", sorted(NOT_ID_ARRAYS))
@pytest.mark.parametrize("entry", [name for name, _ in id_array_entries()])
def test_every_integer_array_parameter_refuses(entry, case):
    call = dict(id_array_entries())[entry]
    with pytest.raises(ReproError, match="must be integers"):
        call(NOT_ID_ARRAYS[case])


@pytest.mark.parametrize("case", sorted(NOT_ID_ARRAYS))
@pytest.mark.parametrize("entry", [name for name, _ in query_entries()])
def test_every_query_column_refuses(entry, case):
    """An index refuses an N-D batch as every front door does; a mismatched
    shape is refused too."""
    call = dict(query_entries())[entry]
    with pytest.raises(ReproError, match="must be integers"):
        call(NOT_ID_ARRAYS[case])
    with pytest.raises(ReproError, match="same shape"):
        call(np.array([1, 2, 3]))


def instant_entries():
    """``(name, call)``: one public timestamp each."""
    yield "service.submit at", lambda t: service().submit("t", 3, 4, at=t)
    yield "service.submit_many at", lambda t: service().submit_many(
        "t", [3], [4], at=[t]
    )
    yield "cluster.submit at", lambda t: cluster().submit("t", 3, 4, at=t)
    yield "cluster.submit_many at", lambda t: cluster().submit_many(
        "t", [3], [4], at=[t]
    )
    yield "service.advance_to", lambda t: service().advance_to(t)
    yield "service.sync_to", lambda t: service().sync_to(t)
    yield "cluster.advance_to", lambda t: cluster().advance_to(t)
    yield "SimulatedClock()", SimulatedClock
    yield "SimulatedClock.advance_to", lambda t: SimulatedClock().advance_to(t)
    yield "SimulatedClock.advance", lambda t: SimulatedClock().advance(t)


def duration_entries():
    """``(name, call)``: one public duration each."""
    yield "BatchPolicy", lambda s: BatchPolicy(max_wait_s=s)
    yield "ServiceConfig", lambda s: ServiceConfig(max_wait_s=s)
    yield "ClusterConfig", lambda s: ClusterConfig(max_wait_s=s)
    yield "ClusterConfig hedge", lambda s: ClusterConfig(hedge_delay_s=s)
    yield "ServiceConfig.derive", lambda s: ServiceConfig().derive(max_wait_s=s)
    yield "service.apply_tuning", lambda s: service().apply_tuning(max_wait_s=s)
    yield "service lane tuning", lambda s: service().apply_tuning(
        max_wait_s=s, dataset="t"
    )
    yield "cluster.apply_tuning", lambda s: cluster().apply_tuning(max_wait_s=s)
    yield "cluster hedge tuning", lambda s: cluster().apply_tuning(hedge_delay_s=s)
    yield "SLO p99", lambda s: SLO(p99_latency_s=s)
    yield "SLO throughput", lambda s: SLO(min_throughput_qps=s)
    for field in ("shed_in", "shed_out", "queue_in", "queue_out", "p99_in_s",
                  "p99_out_s", "cooldown_out_s", "cooldown_in_s"):
        yield f"AutoscalePolicy {field}", (
            lambda s, field=field: AutoscalePolicy(**{field: s}))
    yield "Controller interval", lambda s: controller(interval_s=s)
    yield "Controller min wait", lambda s: controller(min_wait_s=s)
    yield "PoissonArrivals", lambda s: PoissonArrivals(rate_qps=s)
    yield "DeterministicArrivals", lambda s: DeterministicArrivals(rate_qps=s)
    yield "FaultEvent", lambda s: FaultEvent(time_s=s, action="kill", replica=0)
    yield "RetryPolicy base", lambda s: RetryPolicy(base_backoff_s=s)
    yield "RetryPolicy max", lambda s: RetryPolicy(max_backoff_s=s)
    yield "RetryPolicy jitter", lambda s: RetryPolicy(jitter=s)


@pytest.mark.parametrize("case", sorted(NOT_SECONDS))
@pytest.mark.parametrize(
    "entry", [name for name, _ in [*instant_entries(), *duration_entries()]]
)
def test_every_timestamp_and_duration_refuses(entry, case):
    call = dict([*instant_entries(), *duration_entries()])[entry]
    with pytest.raises(ReproError):
        call(NOT_SECONDS[case])


COUNTS = [
    (BatchPolicy, "max_batch_size"),
    (ServiceConfig, "max_batch_size"),
    (ServiceConfig, "capacity_bytes"),
    (ServiceConfig, "answer_cache_bytes"),
    (ClusterConfig, "n_replicas"),
    (ClusterConfig, "max_batch_size"),
    (ClusterConfig, "capacity_bytes"),
    (ClusterConfig, "max_pending"),
    (AutoscalePolicy, "min_replicas"),
    (AutoscalePolicy, "max_replicas"),
    (AutoscalePolicy, "step_out"),
    (AutoscalePolicy, "step_in"),
    (controller, "min_batch_size"),
    (controller, "max_batch_size"),
    (controller, "max_pending_cap"),
    (calibrate, "repeats"),
    (calibrate, "warmup"),
    (calibrate, "n_nodes"),
    (calibrate, "seed"),
    (calibration_grid, "batch_sizes"),
]


@pytest.mark.parametrize("case", sorted(NOT_COUNTS))
@pytest.mark.parametrize(
    "config, field", COUNTS, ids=[f"{c.__name__}.{f}" for c, f in COUNTS]
)
def test_every_config_count_refuses(config, field, case):
    with pytest.raises(ServiceError, match=field):
        config(**{field: NOT_COUNTS[case]})


def three():
    return ClusterService(config=ClusterConfig(n_replicas=3))


def replica_entries():
    """``(name, call)``: one replica id or fault count each (three replicas, so
    a cast ``2.5`` would name a real one)."""
    yield "register_tree replicas", lambda v: three().register_tree(
        "u", PARENTS, replicas=v
    )
    yield "register_tree on", lambda v: three().register_tree("u", PARENTS, on=[v])
    yield "retire_replica", lambda v: three().retire_replica(v)
    yield "FaultEvent replica", lambda v: FaultEvent(0.0, "kill", replica=v)
    yield "FaultEvent count", lambda v: FaultEvent(0.0, "transient", replica=0, count=v)


@pytest.mark.parametrize("case", sorted(NOT_COUNTS))
@pytest.mark.parametrize("entry", [name for name, _ in replica_entries()])
def test_every_replica_id_and_fault_count_refuses(entry, case):
    """``on=[1.7]`` used to pin replica 1 and ``FaultEvent(count=2.5)`` to
    arm a float; now each is refused with its front door's error type."""
    error = ConfigurationError if entry.startswith("FaultEvent") else ServiceError
    with pytest.raises(error, match="integer"):
        dict(replica_entries())[entry](NOT_COUNTS[case])


def test_register_tree_refuses_replicas_and_on_together():
    """``replicas=99, on=[1]`` used to place on ``(1,)`` without reading
    ``replicas``; naming both is now a contradiction, refused before any
    state changes."""
    cluster = three()
    with pytest.raises(ServiceError, match="not both"):
        cluster.register_tree("b", PARENTS, replicas=99, on=[1])
    with pytest.raises(ServiceError, match="not both"):
        cluster.register_tree("b", PARENTS, replicas=1, on=[1])
    assert cluster.datasets == []
    assert cluster.register_tree("b", PARENTS, on=[1]) == (1,)


@pytest.mark.parametrize("factor", [0.5, math.inf, True, "2"], ids=repr)
def test_a_slowdown_factor_is_checked_at_construction(factor):
    """A factor below 1.0 used to raise mid-serve, at the fault instant."""
    with pytest.raises(ConfigurationError, match="factor must be"):
        FaultEvent(0.0, "slowdown", replica=0, factor=factor)
    if factor is math.inf:
        with pytest.raises(ServiceError, match="finite"):
            LCAQueryService().set_service_factor(factor)


@pytest.mark.parametrize("case", sorted(NOT_COUNTS))
@pytest.mark.parametrize("field", ["max_attempts", "seed"])
def test_every_workload_count_refuses_with_a_configuration_error(field, case):
    with pytest.raises(ConfigurationError, match=field):
        RetryPolicy(**{field: NOT_COUNTS[case]})


@pytest.mark.parametrize("case", sorted(NOT_COUNTS))
@pytest.mark.parametrize("field", ["max_batch_size", "max_pending", "n_replicas"])
def test_tuning_refuses_what_the_config_refuses(field, case):
    """``apply_tuning(max_batch_size=2.5)`` used to run with ``int(2.5)``."""
    target = ClusterService(config=ClusterConfig(n_replicas=2, max_pending=64))
    target.register_tree("t", PARENTS)
    with pytest.raises(ServiceError):
        target.apply_tuning(**{field: NOT_COUNTS[case]})


# ----------------------------------------------------------------------
# The holes each front door had on its own
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [service, cluster], ids=["service", "cluster"])
@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_the_clock_never_becomes_nan_or_infinite(make, t):
    target = make()
    with pytest.raises(ServiceError):
        target.advance_to(t)
    assert target.clock.now == 0.0
    ticket = target.submit("t", 3, 4, at=1e-3)
    target.drain()
    assert target.result(ticket) == 1


def test_a_nan_wait_never_serves_a_query_before_it_arrives():
    with pytest.raises(ServiceError, match="max_wait_s"):
        ServiceConfig(max_wait_s=math.nan)


@pytest.mark.parametrize("knobs", [
    {"repeats": 0}, {"n_nodes": 0}, {"warmup": -1}, {"seed": -1},
    {"batch_sizes": (0, 2)},
], ids=repr)
def test_calibration_refuses_a_count_below_its_least(knobs):
    """``warmup=-1`` used to be written into the profile's ``meta`` and
    ``seed=-1`` to escape as a builtins ``ValueError``."""
    with pytest.raises(ServiceError, match="must be at least"):
        calibrate(**knobs)


@pytest.mark.parametrize("make, field", [
    (lambda t: FaultEvent(time_s=t, action="kill", replica=0), "time_s"),
    (lambda r: PoissonArrivals(rate_qps=r), "rate_qps"),
    (lambda s: RetryPolicy(max_backoff_s=s), "max_backoff_s"),
], ids=["FaultEvent", "PoissonArrivals", "RetryPolicy"])
def test_schedules_refuse_with_their_own_error_type(make, field):
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigurationError, match=field):
            make(bad)
    assert type(getattr(make(2), field)) is float  # stored normalised


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, True, "1", 0, -1],
                         ids=repr)
@pytest.mark.parametrize("run", [
    lambda w: replay(service(), make_scenario("steady", scale=0.1),
                     admission_window_s=w),
    lambda w: replay_chaos(make_chaos_scenario("chaos-replica-kill", scale=0.1),
                           admission_window_s=w),
    lambda w: scenario_suite(["steady"], scale=0.1, admission_window_s=w),
], ids=["replay", "replay_chaos", "scenario_suite"])
def test_every_replay_refuses_an_admission_window_that_is_no_duration(run, window):
    """A NaN window escaped as a builtins ``ValueError``, ``True`` ran as a
    1-second window and ``inf`` as one that never closes."""
    with pytest.raises(ConfigurationError, match="admission_window_s"):
        run(window)


@pytest.mark.parametrize("case", sorted(NOT_COUNTS))
@pytest.mark.parametrize(
    "read, reads", [("result", "results"), ("latency", "latencies")],
    ids=["result", "latency"],
)
@pytest.mark.parametrize("make", [service, cluster], ids=["service", "cluster"])
def test_both_front_doors_refuse_a_scalar_ticket_that_is_no_integer(
        make, read, reads, case):
    """A cast would read ``result(True)`` as ticket 1 and ``latency(2.5)`` as
    ticket 2; the one shared reader refuses both on either front door, and an
    integer scalar reads what the vector reader does."""
    target = make()
    with pytest.raises(ServiceError, match="must be integers"):
        read_back(target, read, NOT_COUNTS[case])
    assert getattr(target, read)(np.int64(1)) == getattr(target, reads)([1])[0]


@pytest.mark.parametrize("make", [service, cluster], ids=["service", "cluster"])
@pytest.mark.parametrize("at", [True, "1"], ids=repr)
def test_both_front_doors_refuse_a_bool_or_str_arrival(make, at):
    target = make()
    with pytest.raises(ServiceError):
        target.submit("t", 3, 4, at=at)
    with pytest.raises(ServiceError):
        target.submit_many("t", [3], [4], at=[at])
    assert target.tickets_issued == 0


@pytest.mark.parametrize("make", [service, cluster], ids=["service", "cluster"])
def test_both_front_doors_refuse_a_ragged_or_str_block(make):
    target = make()
    for bad in ([[3, 4], [5]], ["x"]):
        with pytest.raises(ReproError):
            target.submit_many("t", bad, bad)
        with pytest.raises(ServiceError):
            target.submit_many("t", [3], [4], at=bad)
    assert target.tickets_issued == 0


# ----------------------------------------------------------------------
# What passes, normalised
# ----------------------------------------------------------------------
def test_configs_store_their_fields_normalised():
    config = ClusterConfig(
        n_replicas=np.int64(2), max_wait_s=0, hedge_delay_s=1, backends=["gpu"]
    )
    assert type(config.n_replicas) is int and config.n_replicas == 2
    assert type(config.max_wait_s) is float and config.max_wait_s == 0.0
    assert config.hedge_delay_s == 1.0 and config.backends == ("gpu",)
    assert ClusterConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert ServiceConfig(capacity_bytes=None).capacity_bytes is None
    retry = RetryPolicy(max_attempts=np.int64(2), seed=np.int64(0), max_backoff_s=1)
    assert type(retry.max_attempts) is int and type(retry.seed) is int
    assert type(retry.max_backoff_s) is float and retry.max_backoff_s == 1.0


def test_id_arrays_pass_integer_dtypes_lists_scalars_and_empty_input():
    for good in (np.array([1, 2], dtype=np.int32), [1, 2], np.array([1, 2], np.uint8)):
        out = boundary.node_ids(good)
        assert out.dtype == np.int64 and out.tolist() == [1, 2]
    ids = np.array([1, 2])
    assert boundary.node_ids(ids) is ids
    for empty in ([], np.array([], dtype=np.float64), np.array([], dtype=object)):
        assert boundary.node_ids(empty).size == 0
    assert boundary.ticket_ids(np.int64(3)).tolist() == [3]
    assert boundary.query_ids(np.int16(3)).tolist() == [3]
    with pytest.raises(ReproError, match="scalars or 1-D; got 2 dimensions"):
        boundary.query_ids(np.ones((2, 3), dtype=np.int16))
    with pytest.raises(ReproError, match="1-D"):
        boundary.node_ids(np.int64(3))


def test_scalars_and_instants():
    assert boundary.int_scalar(np.int32(5), ServiceError, "n") == 5
    assert boundary.query_pair(np.int64(3), 4) == (3, 4)
    assert boundary.instant(np.float32(0.5)) == 0.5 and boundary.instant(2) == 2.0
    for bad in (True, np.bool_(True), 1.5, "1", None):
        with pytest.raises(ServiceError, match="must be an integer"):
            boundary.int_scalar(bad, ServiceError, "n")
    for bad in (np.bool_(True), b"1", None, np.nan):
        with pytest.raises(ServiceError, match="finite"):
            boundary.instant(bad)
