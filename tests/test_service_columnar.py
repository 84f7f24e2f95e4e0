"""Columnar fast-path tests: ring buffers, vectorized results, and the error
surface of the vectorized paths.  That block admission serves what a loop of
``submit`` calls serves is ``tests/test_serving_spec.py``'s to check."""

import numpy as np
import pytest

from repro.boundary import query_block
from repro.errors import InvalidQueryError, ReproError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.service import (
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    MicroBatchScheduler,
    ServiceConfig,
)

from .conftest import offender_sweep
from .spec_serving import admit


def test_flushed_slices_survive_buffer_refills():
    # Tiny pending windows over many submissions force several buffer
    # refills; previously flushed zero-copy slices must stay intact.
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=2, max_wait_s=10.0))
    batches = []
    for i in range(5_000):
        batches.extend(sched.submit(i, 2 * i, 2 * i + 1, at=float(i) * 1e-6))
    assert len(batches) == 2_500
    for k, batch in enumerate(batches):
        assert batch.tickets.tolist() == [2 * k, 2 * k + 1]
        assert batch.xs.tolist() == [4 * k, 4 * k + 2]


def test_submit_block_rejects_backwards_arrivals():
    sched = MicroBatchScheduler(BatchPolicy())
    sched.submit(0, 1, 2, at=1.0)
    with pytest.raises(ServiceError):
        sched.submit_block(np.asarray([1]), np.asarray([3]), np.asarray([4]),
                           np.asarray([0.5]))


def test_pending_snapshot_is_row_wise():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=8, max_wait_s=1.0))
    sched.submit(7, 1, 2, at=0.25)
    (pending,) = sched.pending
    assert (pending.ticket, pending.x, pending.y, pending.arrival_s) == \
           (7, 1, 2, 0.25)


def test_submit_many_with_default_arrivals_coalesces_now():
    parents = random_attachment_tree(300, seed=5)
    xs, ys = generate_random_queries(300, 40, seed=6)
    service = LCAQueryService(config=ServiceConfig(max_batch_size=8,
                                                   max_wait_s=1e-3))
    service.register_tree("t", parents)
    tickets = service.submit_many("t", xs, ys)  # all arrive "now"
    service.drain()
    assert np.array_equal(service.results(tickets),
                          BinaryLiftingLCA(parents).query(xs, ys))
    stats = service.stats()
    assert stats.flush_triggers.get("size", 0) == 5
    assert stats.queries_answered == 40


# ----------------------------------------------------------------------
# Vectorized admission: error positions match the per-query loop
# ----------------------------------------------------------------------

def test_submit_many_out_of_range_rejects_at_its_own_position():
    parents = random_attachment_tree(100, seed=7)
    service = LCAQueryService(config=ServiceConfig(max_batch_size=4,
                                                   max_wait_s=1e-3))
    service.register_tree("t", parents)
    xs = np.asarray([1, 2, 3, 4, 5, 500, 6])  # index 5 is out of range
    ys = np.asarray([2, 3, 4, 5, 6, 7, 8])
    at = np.arange(7, dtype=np.float64) * 1e-6
    with pytest.raises(InvalidQueryError):
        service.submit_many("t", xs, ys, at=at)
    # The clean prefix was admitted (and its size-triggered batch served),
    # exactly like the per-query loop.
    assert service.stats().queries_submitted == 5
    assert service.pending_count("t") == 1
    service.drain()
    assert np.array_equal(
        service.results(np.arange(5)),
        BinaryLiftingLCA(parents).query(xs[:5], ys[:5]))
    # Negative nodes are caught by the same fused check.
    with pytest.raises(InvalidQueryError):
        service.submit_many("t", [-1], [3], at=[1e-3])
    # Every offender kind first, in the middle and last, and two kinds in
    # both orders: the block admits the prefix and raises exactly what the
    # spec's row-by-row admission does.
    oracle = BinaryLiftingLCA(parents)
    for spoilers, (xs, ys, at) in offender_sweep():
        fresh = LCAQueryService(config=ServiceConfig(max_batch_size=4,
                                                     max_wait_s=1e-3))
        fresh.register_tree("t", parents)
        block = query_block(xs, ys, at, now=0.0)
        stop, expected = admit(*block, n=100, dataset="t", now=0.0)
        with pytest.raises(ReproError) as raised:
            fresh.submit_many("t", xs, ys, at=at)
        assert type(raised.value) is type(expected), spoilers
        assert str(raised.value) == str(expected), spoilers
        assert fresh.tickets_issued == fresh.stats().queries_submitted == stop
        fresh.drain()
        assert np.array_equal(fresh.results(np.arange(stop)),
                              oracle.query(block[0][:stop], block[1][:stop]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_arrival_is_a_typed_error_not_a_hang(hang_guard, bad):
    service = LCAQueryService()
    service.register_tree("t", random_attachment_tree(100, seed=8))
    with pytest.raises(ServiceError, match="finite"):
        service.submit_many("t", [1, 2, 3], [4, 5, 6], at=[0.0, bad, 1e-3])
    assert service.tickets_issued == 1  # the clean prefix was admitted
    with pytest.raises(ServiceError, match="finite"):
        service.submit("t", 1, 2, at=bad)
    assert service.clock.now == 0.0
    service.drain()  # the clock is intact: the admitted query still serves
    assert service.answered([0]).all()


@pytest.mark.parametrize("kind", ["service", "cluster"])
@pytest.mark.parametrize("at", [None, np.zeros((2, 2)), np.zeros(4)],
                         ids=["now", "at-2d", "at-1d"])
def test_nd_query_block_is_refused_before_any_ticket_is_issued(kind, at):
    if kind == "service":
        target = LCAQueryService()
    else:
        target = ClusterService(config=ClusterConfig(n_replicas=2))
    target.register_tree("t", random_attachment_tree(100, seed=8))
    block = np.array([[1, 2], [3, 4]])
    for xs, ys in [(block, block + 1), (block, [2, 3]), ([1, 2], block)]:
        with pytest.raises(InvalidQueryError, match="1-D"):
            target.submit_many("t", xs, ys, at=at)
    assert target.tickets_issued == 0
    assert target.stats().queries_submitted == 0
    assert target.pending_count() == 0
    # A 0-D scalar is still a one-row block.
    tickets = target.submit_many("t", np.int64(3), 4)
    target.drain()
    assert tickets.tolist() == [0] and target.results(tickets).size == 1


# ----------------------------------------------------------------------
# Vectorized results(): one lookup, uniform error surface (regression
# tests for the former quadratic-ish per-ticket path)
# ----------------------------------------------------------------------

def test_results_vectorized_and_error_surface():
    parents = random_attachment_tree(200, seed=9)
    # max_batch_size > stream length: every query stays queued until drain().
    service = LCAQueryService(config=ServiceConfig(max_batch_size=16,
                                                   max_wait_s=1e-3))
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(200, 8, seed=10)
    tickets = service.submit_many("t", xs, ys,
                                  at=np.arange(8, dtype=np.float64) * 1e-6)

    # Unknown tickets raise uniformly — never issued, negative, or mixed
    # with known ones.
    with pytest.raises(ServiceError, match="unknown ticket 999"):
        service.results([999])
    with pytest.raises(ServiceError, match="unknown ticket -1"):
        service.results([-1])
    with pytest.raises(ServiceError, match="unknown ticket"):
        service.results([0, 1, 999])
    # Queued tickets raise uniformly before the drain...
    with pytest.raises(ServiceError, match="still queued"):
        service.results(tickets)
    with pytest.raises(ServiceError, match="still queued"):
        service.result(int(tickets[0]))
    with pytest.raises(ServiceError, match="still queued"):
        service.latency(int(tickets[0]))
    # ...and unknown takes precedence over queued, as in result().
    with pytest.raises(ServiceError, match="unknown ticket"):
        service.results([int(tickets[0]), 999])

    service.drain()
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    assert np.array_equal(service.results(tickets), expected)
    # Scalars, lists, and duplicated / permuted fancy indexes all resolve.
    assert service.results(int(tickets[3])).tolist() == [int(expected[3])]
    perm = [int(tickets[5]), int(tickets[2]), int(tickets[5])]
    assert service.results(perm).tolist() == \
           [int(expected[5]), int(expected[2]), int(expected[5])]
    assert service.results([]).size == 0
    assert service.latencies([]).size == 0
    assert service.results([]).dtype == np.int64


def test_latencies_matches_scalar_latency():
    parents = random_attachment_tree(150, seed=11)
    service = LCAQueryService(config=ServiceConfig(max_batch_size=4,
                                                   max_wait_s=1e-4))
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(150, 12, seed=12)
    tickets = service.submit_many("t", xs, ys,
                                  at=np.arange(12, dtype=np.float64) * 1e-5)
    service.drain()
    vec = service.latencies(tickets)
    assert vec.tolist() == [service.latency(int(t)) for t in tickets]
    assert (vec > 0).all()


# ----------------------------------------------------------------------
# Ticket tables survive growth
# ----------------------------------------------------------------------

def test_ticket_tables_grow_past_initial_capacity():
    parents = random_attachment_tree(500, seed=13)
    q = 3_000  # > the initial 1024-slot ticket table
    xs, ys = generate_random_queries(500, q, seed=14)
    service = LCAQueryService(config=ServiceConfig(max_batch_size=256,
                                                   max_wait_s=1e-4))
    service.register_tree("t", parents)
    at = np.arange(q, dtype=np.float64) * 1e-7
    tickets = service.submit_many("t", xs, ys, at=at)
    service.drain()
    assert np.array_equal(service.results(tickets),
                          BinaryLiftingLCA(parents).query(xs, ys))
    assert service.stats().queries_answered == q
