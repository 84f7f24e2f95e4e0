"""End-to-end service tests: correctness vs the oracle, stats, and dispatch mix."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.service import (
    CPU_SEQUENTIAL_BACKEND,
    LCAQueryService,
    ServiceConfig,
    estimate_batch_query_time,
)


def build_service(parents, name="t", **knobs):
    service = LCAQueryService(config=ServiceConfig(**knobs))
    service.register_tree(name, parents)
    return service


# ----------------------------------------------------------------------
# The acceptance-criterion scenario: 10k single submissions, mixed load
# ----------------------------------------------------------------------

def test_ten_thousand_queries_match_reference_with_mixed_load():
    n, q = 30_000, 10_000
    parents = random_attachment_tree(n, seed=0)
    xs, ys = generate_random_queries(n, q, seed=1)
    # Two-phase offered load: the first 200 queries trickle in slower than
    # the wait budget (forced singleton batches), the rest flood in at 2M qps
    # (device-sized batches).
    slow = np.arange(200, dtype=np.float64) * 5e-4
    fast = slow[-1] + 1e-3 + np.arange(q - 200, dtype=np.float64) * 5e-7
    arrivals = np.concatenate([slow, fast])

    service = build_service(
        parents, max_batch_size=256, max_wait_s=2e-4
    )
    tickets = service.submit_many("t", xs, ys, at=arrivals)
    service.drain()

    answers = service.results(tickets)
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    assert np.array_equal(answers, expected)

    stats = service.stats()
    assert stats.queries_submitted == q
    assert stats.queries_answered == q
    # Non-trivial batch-size histogram: singleton batches from the trickle
    # phase and large batches from the flood phase.
    assert 1 in stats.batch_size_histogram
    assert max(stats.batch_size_histogram) >= 256
    assert len(stats.batch_size_histogram) >= 2
    # The dispatcher sent the singletons to the CPU and the bulk to the GPU.
    assert stats.backend_choices["cpu1"] >= 200
    assert stats.backend_choices["gpu"] >= 1
    # Both flush triggers occurred, and the index cache amortized: one build
    # per backend, everything else hits.
    assert stats.flush_triggers["wait"] > 0
    assert stats.flush_triggers["size"] > 0
    assert stats.cache_misses == 2
    assert stats.cache_hit_rate > 0.9
    assert stats.throughput_qps > 0
    assert stats.latency_p99_s >= stats.latency_p50_s > 0
    # The snapshot renders without blowing up.
    rendered = stats.format()
    assert "batch histogram" in rendered and "index cache" in rendered


# ----------------------------------------------------------------------
# Cache pressure
# ----------------------------------------------------------------------

def test_correct_under_eviction_thrash():
    pa = random_attachment_tree(8_192, seed=9)
    pb = random_attachment_tree(8_192, seed=10)
    # Capacity fits roughly one index: alternating datasets must thrash the
    # cache yet never affect answers.
    service = LCAQueryService(config=ServiceConfig(
        max_batch_size=4, max_wait_s=0.0, capacity_bytes=600_000))
    service.register_tree("a", pa)
    service.register_tree("b", pb)
    xs, ys = generate_random_queries(8_192, 40, seed=11)
    tickets = []
    for i in range(40):
        name = "a" if i % 2 == 0 else "b"
        tickets.append((name, i, service.submit(name, int(xs[i]), int(ys[i]),
                                                at=i * 1e-3)))
    service.drain()
    oracle = {"a": BinaryLiftingLCA(pa), "b": BinaryLiftingLCA(pb)}
    for name, i, ticket in tickets:
        expected = int(oracle[name].query([xs[i]], [ys[i]])[0])
        assert service.result(ticket) == expected
    stats = service.stats()
    assert stats.cache_evictions > 0
    assert stats.cache_misses > 2  # rebuilt after eviction


# ----------------------------------------------------------------------
# Error surface
# ----------------------------------------------------------------------

def test_overload_saturates_at_backend_capacity():
    parents = random_attachment_tree(2_048, seed=14)
    service = build_service(parents, max_batch_size=1, max_wait_s=0.0)
    # Pass-through serving on the CPU backend has a hard modeled capacity of
    # one query per singleton service time; offering 100x that rate must
    # deliver roughly the capacity (not the offered rate) with queueing
    # delay dominating the tail latency.
    per_query = estimate_batch_query_time(CPU_SEQUENTIAL_BACKEND, 1)
    capacity = 1.0 / per_query
    offered = 100.0 * capacity
    q = 20_000
    at = np.arange(q, dtype=np.float64) / offered
    xs, ys = generate_random_queries(2_048, q, seed=15)
    service.submit_many("t", xs, ys, at=at)
    service.drain()
    stats = service.stats()
    assert stats.queries_answered == q
    assert stats.throughput_qps < 0.1 * offered
    # Within ~2x of capacity (the cold index build also occupies the device).
    assert stats.throughput_qps == pytest.approx(capacity, rel=1.0)
    # Queries at the back of the overloaded queue waited far longer than the
    # front: the tail is queueing delay, not service time.
    assert stats.latency_p99_s > 50 * per_query


def test_prepopulated_store_is_servable():
    from repro.service import ForestStore

    parents = random_attachment_tree(500, seed=13)
    store = ForestStore()
    store.add_tree("pre", parents)
    service = LCAQueryService(store)
    ticket = service.submit("pre", 5, 9, at=0.0)
    service.drain()
    assert service.result(ticket) == int(BinaryLiftingLCA(parents).query([5], [9])[0])


def test_invalid_query_rejected_at_submit_without_poisoning_batch():
    from repro.errors import InvalidQueryError

    parents = random_attachment_tree(100, seed=12)
    service = build_service(parents)
    good = service.submit("t", 1, 2, at=0.0)
    # The bad query is rejected at its own submit call — it never enters a
    # batch, consumes no ticket, and leaves the queued query unharmed.
    with pytest.raises(InvalidQueryError):
        service.submit("t", 5, 500, at=1e-6)
    with pytest.raises(InvalidQueryError):
        service.submit("t", -1, 2)
    after = service.submit("t", 3, 4, at=2e-6)
    assert after == good + 1
    service.drain()
    oracle = BinaryLiftingLCA(parents)
    assert service.result(good) == int(oracle.query([1], [2])[0])
    assert service.result(after) == int(oracle.query([3], [4])[0])
    assert service.stats().queries_submitted == 2


def test_error_surface():
    service = build_service(random_attachment_tree(100, seed=12))
    with pytest.raises(ServiceError):
        service.submit("nope", 1, 2)
    with pytest.raises(ServiceError):
        service.result(999)  # never issued
    ticket = service.submit("t", 1, 2, at=0.0)
    with pytest.raises(ServiceError):
        service.result(ticket)  # still queued
    service.drain()
    assert service.result(ticket) >= 0
    with pytest.raises(ServiceError):
        service.register_tree("t", random_attachment_tree(10, seed=0))
    with pytest.raises(ServiceError):
        service.submit_many("t", np.asarray([1, 2]), np.asarray([3]))
