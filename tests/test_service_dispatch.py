"""Dispatcher tests: roofline pricing vs brute force, and the CPU/GPU crossover."""

import numpy as np
import pytest

from repro.device import GTX980, XEON_X5650_SINGLE, ExecutionContext, modeled_kernel_time
from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.backends import BackendCalibration, CalibrationProfile, available_backends
from repro.graphs.trees import generate_random_queries
from repro.lca import (
    INLABEL_QUERY_COST,
    BinaryLiftingLCA,
    InlabelLCA,
    SequentialInlabelLCA,
)
from repro.service import (
    CPU_SEQUENTIAL_BACKEND,
    DEFAULT_BACKENDS,
    GPU_BATCH_BACKEND,
    Backend,
    CostModelDispatcher,
    LCAQueryService,
    ServiceConfig,
    estimate_batch_query_time,
)
from repro.service.dispatch import dispatcher_for, known_backend_keys, make_backend

BATCH_SIZES = (1, 2, 5, 10, 50, 100, 1_000, 10_000, 100_000)


def brute_force_estimate(backend, q):
    """Price a batch directly with the roofline model (no dispatch layer)."""
    cost = INLABEL_QUERY_COST
    if backend.sequential:
        return modeled_kernel_time(
            backend.spec, threads=1, ops=cost.ops * q,
            bytes_read=cost.bytes_read * q, bytes_written=0.0,
            launches=1, random_access=True)
    return modeled_kernel_time(
        backend.spec, threads=q, ops=cost.ops * q,
        bytes_read=cost.bytes_read * q, bytes_written=cost.bytes_written * q,
        launches=1, random_access=True)


def test_estimates_equal_brute_force_roofline():
    dispatcher = CostModelDispatcher()
    for backend in dispatcher.backends:
        for q in BATCH_SIZES:
            assert dispatcher.estimate(backend, q) == brute_force_estimate(backend, q)


def test_choice_is_argmin_of_brute_force_costs():
    dispatcher = CostModelDispatcher()
    for q in BATCH_SIZES:
        expected = min(dispatcher.backends, key=lambda b: brute_force_estimate(b, q))
        assert dispatcher.choose(q) is expected


def test_cpu_serves_singletons_gpu_serves_bulk():
    """The acceptance-criterion decision pair under the GTX 980 spec."""
    dispatcher = CostModelDispatcher()
    assert dispatcher.choose(1) is CPU_SEQUENTIAL_BACKEND
    assert dispatcher.choose(100_000) is GPU_BATCH_BACKEND
    assert dispatcher.choose(1).spec is XEON_X5650_SINGLE
    assert dispatcher.choose(100_000).spec is GTX980


def test_crossover_matches_linear_scan():
    dispatcher = CostModelDispatcher()
    crossover = dispatcher.crossover_batch_size()
    assert crossover is not None
    base = dispatcher.choose(1)
    scan = next(q for q in range(1, 10_000) if dispatcher.choose(q) is not base)
    assert crossover == scan
    # The paper's Fig. 6 has the GPU overtaking the single-core CPU around
    # batch ~100; the model should land in that decade.
    assert 10 <= crossover <= 1_000


def test_crossover_none_when_choice_never_flips():
    single = CostModelDispatcher([CPU_SEQUENTIAL_BACKEND])
    assert single.crossover_batch_size() is None


def test_ties_go_to_the_earlier_backend():
    twin = Backend(key="cpu1-twin", label="twin", spec=XEON_X5650_SINGLE,
                   sequential=True)
    dispatcher = CostModelDispatcher([CPU_SEQUENTIAL_BACKEND, twin])
    assert dispatcher.choose(1) is CPU_SEQUENTIAL_BACKEND
    assert dispatcher.choose(10_000) is CPU_SEQUENTIAL_BACKEND


def test_estimate_equals_actual_query_charge():
    """The dispatcher prices exactly what the execution layer charges."""
    parents = random_attachment_tree(2_048, seed=11)
    xs = np.arange(500, dtype=np.int64)
    ys = np.arange(500, 1000, dtype=np.int64)

    cpu = SequentialInlabelLCA(parents)
    ctx = ExecutionContext(XEON_X5650_SINGLE)
    cpu.query(xs, ys, ctx=ctx)
    assert ctx.elapsed == estimate_batch_query_time(CPU_SEQUENTIAL_BACKEND, 500)

    gpu = InlabelLCA(parents)
    ctx = ExecutionContext(GTX980)
    gpu.query(xs, ys, ctx=ctx)
    assert ctx.elapsed == estimate_batch_query_time(GPU_BATCH_BACKEND, 500)


def test_validation():
    with pytest.raises(ServiceError):
        CostModelDispatcher([])
    with pytest.raises(ServiceError):
        CostModelDispatcher([CPU_SEQUENTIAL_BACKEND, CPU_SEQUENTIAL_BACKEND])
    with pytest.raises(ServiceError):
        estimate_batch_query_time(GPU_BATCH_BACKEND, 0)


# ----------------------------------------------------------------------
# One price: what is booked is the dispatcher's estimate
# ----------------------------------------------------------------------

MEMO_MAX_BATCH = 24
#: Every size a scheduler can flush, one past it (hedges and dedup price
#: other counts) and a few large ones.
MEMO_SIZES = (*range(1, MEMO_MAX_BATCH + 2), 257, 1_000, 4_096)
MEMO_PARENTS = random_attachment_tree(512, seed=29)
MEMO_ORACLE = BinaryLiftingLCA(MEMO_PARENTS)


def booked_charge(service, size):
    """Serve one ``size``-query batch, check its answers, return its charge."""
    xs, ys = generate_random_queries(MEMO_PARENTS.size, size, seed=size)
    busy_before = service.stats().busy_time_s
    tickets = service.submit_many("t", xs, ys)
    service.drain()
    assert np.array_equal(service.results(tickets), MEMO_ORACLE.query(xs, ys))
    return service.stats().busy_time_s - busy_before


def memo_service(dispatcher, *, max_batch_size=MEMO_MAX_BATCH):
    service = LCAQueryService(
        config=ServiceConfig(max_batch_size=max_batch_size), dispatcher=dispatcher)
    service.register_tree("t", MEMO_PARENTS)
    service.warm("t")
    return service


def line_profile(lines, *, max_batch):
    """A profile of ``{backend key: (launch overhead, per-query cost)}`` lines."""
    return CalibrationProfile(entries={
        key: BackendCalibration(
            backend=key, launch_overhead_s=overhead, per_query_s=per_query,
            min_batch=1, max_batch=max_batch, samples=11, residual=0.0)
        for key, (overhead, per_query) in lines.items()
    })


def test_every_kernel_backend_is_dispatchable():
    assert {b.key for b in DEFAULT_BACKENDS} <= set(known_backend_keys())
    assert set(available_backends()) <= set(known_backend_keys())


@pytest.mark.parametrize("size", MEMO_SIZES)
@pytest.mark.parametrize("key", known_backend_keys())
def test_booked_charge_is_the_estimate_is_the_artifact_charge(key, size):
    """Modeled endpoints and kernel backends alike: the charge a served batch
    is booked == ``dispatcher.estimate`` == what the registry-built artifact
    charges a fresh context offline, bit for bit."""
    backend = make_backend(key)
    service = memo_service(CostModelDispatcher([backend]), max_batch_size=size)
    estimate = service.dispatcher.estimate(backend, size)
    assert service.stats().busy_time_s == 0.0
    assert booked_charge(service, size) == estimate
    entry, hit = service.registry.fetch_by_key(service._artifact_key("t", backend))
    assert hit
    ctx = ExecutionContext(backend.spec)
    xs, ys = generate_random_queries(MEMO_PARENTS.size, size, seed=size)
    entry.artifact.query(xs, ys, ctx=ctx)
    assert ctx.elapsed == estimate


def test_booked_charge_under_a_profile_is_the_estimate():
    profile = line_profile({"smallbatch": (9.52e-6, 2.606e-7),
                            "numpy": (7.574e-5, 8.66e-8)}, max_batch=4_096)
    dispatcher = dispatcher_for(("smallbatch", "numpy"), profile=profile)
    service = memo_service(dispatcher, max_batch_size=4_096)
    for size in MEMO_SIZES:
        backend, estimate = dispatcher.choose_with_estimate(size)
        assert estimate == profile.predict(backend.key, size)
        assert estimate != estimate_batch_query_time(backend, size)  # measured
        # Busy time accumulates, so the difference carries rounding.
        assert booked_charge(service, size) == pytest.approx(estimate, rel=1e-9)


def test_dispatcher_is_fixed_at_construction():
    """Backends and profile cannot be swapped under the memoized choices and
    estimates; a service handed a new dispatcher books the new prices."""
    profile = line_profile({b.key: (1e-3, 1e-6) for b in DEFAULT_BACKENDS},
                           max_batch=64)
    dispatcher = CostModelDispatcher(profile=profile)
    with pytest.raises(AttributeError):
        dispatcher.profile = None
    with pytest.raises(AttributeError):
        dispatcher.backends = (CPU_SEQUENTIAL_BACKEND,)
    assert dispatcher.profile is profile and dispatcher.backends == DEFAULT_BACKENDS

    service = memo_service(CostModelDispatcher())
    modeled = booked_charge(service, 8)
    assert modeled == estimate_batch_query_time(service.dispatcher.choose(8), 8)
    service.dispatcher = dispatcher
    measured = booked_charge(service, 8)
    assert measured == pytest.approx(1e-3 + 8 * 1e-6, rel=1e-9)
    assert measured != pytest.approx(modeled)


def test_choose_with_estimate_is_choose_plus_estimate():
    dispatcher = CostModelDispatcher()
    for size in BATCH_SIZES:
        backend = dispatcher.choose(size)
        assert dispatcher.choose_with_estimate(size) == (
            backend, dispatcher.estimate(backend, size))
