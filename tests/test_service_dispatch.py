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
    QueryKernelCost,
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
# The memoized charge is the charge
# ----------------------------------------------------------------------

MEMO_MAX_BATCH = 24
#: Every size a scheduler can flush, one past it (hedges and dedup price
#: other counts) and a few large ones.
MEMO_SIZES = (*range(1, MEMO_MAX_BATCH + 2), 257, 1_000, 4_096)
MEMO_PARENTS = random_attachment_tree(512, seed=29)
MEMO_ORACLE = BinaryLiftingLCA(MEMO_PARENTS)


def charged_twice(service, backend, size):
    """``(fresh-context charge, first booked charge, memoized charge)``."""
    entry, _ = service.registry.fetch_by_key(
        service._artifact_key("t", backend), spec=backend.spec)
    xs, ys = generate_random_queries(MEMO_PARENTS.size, size, seed=size)
    ctx = ExecutionContext(backend.spec)
    entry.artifact.query(xs, ys, ctx=ctx)
    first = service._charged_query(entry.artifact, backend, xs, ys, size)
    again = service._charged_query(entry.artifact, backend, xs, ys, size)
    assert np.array_equal(again[0], MEMO_ORACLE.query(xs, ys))
    return ctx.elapsed, first[1], again[1]


def memo_service(dispatcher):
    service = LCAQueryService(
        config=ServiceConfig(max_batch_size=MEMO_MAX_BATCH), dispatcher=dispatcher)
    service.register_tree("t", MEMO_PARENTS)
    return service


def close_artifacts(service):
    for key in service.registry.keys():
        entry, _ = service.registry.fetch_by_key(key)
        getattr(entry.artifact, "close", lambda: None)()  # the pool's workers


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


@pytest.mark.parametrize("cost", [
    INLABEL_QUERY_COST,
    QueryKernelCost(ops=7.0, bytes_read=31.0, bytes_written=3.0),
], ids=["default-cost", "custom-cost"])
@pytest.mark.parametrize("key", known_backend_keys())
def test_memoized_charge_is_the_fresh_context_charge(key, cost):
    """Legacy flavours and compiled kernels alike, whatever the dispatcher
    estimates with: what is booked is what the artifact charges a context."""
    backend = make_backend(key)
    service = memo_service(CostModelDispatcher([backend], cost=cost))
    try:
        for size in MEMO_SIZES:
            fresh, first, again = charged_twice(service, backend, size)
            assert first == fresh and again == fresh  # bit for bit
        assert len(service._charges) == len(MEMO_SIZES)
    finally:
        close_artifacts(service)


def test_memoized_charge_under_a_profile_is_the_estimate():
    profile = line_profile({"smallbatch": (9.52e-6, 2.606e-7),
                            "numpy": (7.574e-5, 8.66e-8)}, max_batch=4_096)
    dispatcher = dispatcher_for(("smallbatch", "numpy"), profile=profile)
    service = memo_service(dispatcher)
    for backend in dispatcher.backends:
        for size in MEMO_SIZES:
            fresh, first, again = charged_twice(service, backend, size)
            assert first == again == dispatcher.estimate(backend, size)
            assert again != fresh  # measured, not modeled


def test_charge_memo_does_not_outlive_its_dispatcher_or_profile():
    service = memo_service(CostModelDispatcher())
    backend = CPU_SEQUENTIAL_BACKEND
    modeled = charged_twice(service, backend, 8)[2]
    profile = line_profile({b.key: (1e-3, 1e-6) for b in DEFAULT_BACKENDS},
                           max_batch=64)
    service.dispatcher = CostModelDispatcher(profile=profile)
    assert charged_twice(service, backend, 8)[2] == 1e-3 + 8 * 1e-6
    service.dispatcher.profile = None  # back to modeled pricing, same object
    assert charged_twice(service, backend, 8)[2] == modeled
