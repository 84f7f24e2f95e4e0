"""Scheduler tests: size- vs wait-triggered flushes on the simulated clock."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.lca import BinaryLiftingLCA
from repro.service import (
    BatchPolicy,
    LCAQueryService,
    MicroBatchScheduler,
    ServiceConfig,
    SimulatedClock,
)


def submit_all(scheduler, queries, **kwargs):
    """Submit (ticket, x, y, at) tuples, collecting every flushed batch."""
    flushed = []
    for ticket, x, y, at in queries:
        flushed.extend(scheduler.submit(ticket, x, y, at=at))
    return flushed


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------

def test_clock_is_monotone():
    clock = SimulatedClock()
    assert clock.now == 0.0
    assert clock.advance(1.5) == 1.5
    assert clock.advance_to(1.5) == 1.5  # advancing to "now" is a no-op
    with pytest.raises(ServiceError):
        clock.advance_to(1.0)
    with pytest.raises(ServiceError):
        clock.advance(-0.1)


def test_policy_validation():
    with pytest.raises(ServiceError):
        BatchPolicy(max_batch_size=0)
    with pytest.raises(ServiceError):
        BatchPolicy(max_wait_s=-1e-3)


# ----------------------------------------------------------------------
# Size trigger
# ----------------------------------------------------------------------

def test_size_trigger_flushes_exactly_at_max_batch():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=4, max_wait_s=1.0))
    batches = submit_all(sched, [(i, i, i + 1, 0.0) for i in range(4)])
    assert len(batches) == 1
    (batch,) = batches
    assert batch.trigger == "size"
    assert batch.size == 4
    assert batch.flush_s == 0.0
    assert batch.tickets.tolist() == [0, 1, 2, 3]
    assert sched.pending_count == 0
    # Queries flushed by size at their own arrival instant waited zero time.
    assert np.all(batch.flush_s - batch.arrival_s == 0.0)


def test_no_flush_below_max_batch_before_deadline():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=4, max_wait_s=1.0))
    batches = submit_all(sched, [(i, i, i, 0.0) for i in range(3)])
    assert batches == []
    assert sched.pending_count == 3
    assert sched.next_deadline == 1.0


# ----------------------------------------------------------------------
# Wait trigger
# ----------------------------------------------------------------------

def test_wait_trigger_fires_at_exact_deadline():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=1e-3))
    submit_all(sched, [(0, 1, 2, 0.0), (1, 3, 4, 4e-4)])
    assert sched.advance_to(9e-4) == []  # before the oldest deadline
    batches = sched.advance_to(5e-3)
    assert len(batches) == 1
    (batch,) = batches
    assert batch.trigger == "wait"
    # Flushed at the deadline itself, not at the (later) observation time.
    assert batch.flush_s == 1e-3
    assert batch.size == 2
    assert (batch.flush_s - batch.arrival_s).tolist() == pytest.approx([1e-3, 6e-4])


def test_submission_fires_expired_deadlines_of_older_queries():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=1e-3))
    batches = submit_all(sched, [(0, 1, 2, 0.0), (1, 3, 4, 2e-3)])
    # The second arrival advanced time past the first query's deadline, so
    # the first query flushed alone — it never shares a batch with a query
    # that arrived after its latency budget expired.
    assert len(batches) == 1
    assert batches[0].tickets.tolist() == [0]
    assert batches[0].flush_s == 1e-3
    assert sched.pending_count == 1


def test_advance_through_multiple_deadlines_yields_multiple_batches():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=1e-3))
    batches = submit_all(sched, [(0, 1, 2, 0.0), (1, 3, 4, 2e-3)])
    batches.extend(sched.advance_to(1.0))
    assert [b.flush_s for b in batches] == [1e-3, 3e-3]
    assert [b.trigger for b in batches] == ["wait", "wait"]


def test_wait_flush_respects_max_batch_size():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=2, max_wait_s=1e-3))
    # 5 queries at t=0 with max batch 2: two flush immediately by size, two
    # more by size, and the straggler flushes at the shared deadline.
    batches = submit_all(sched, [(i, i, i, 0.0) for i in range(5)])
    assert [b.trigger for b in batches] == ["size", "size"]
    batches = sched.advance_to(1e-3)
    assert [(b.trigger, b.size, b.flush_s) for b in batches] == [("wait", 1, 1e-3)]


def test_zero_max_wait_coalesces_same_instant_arrivals():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=0.0))
    # Three queries at the same instant join one batch (arrival exactly at
    # the pending deadline does not flush); the batch goes out as soon as
    # time is observed at or past that instant.
    flushed = submit_all(sched, [(i, i, i, 2.0) for i in range(3)])
    assert flushed == []
    batches = sched.advance_to(2.0)
    assert len(batches) == 1
    assert batches[0].size == 3
    assert (batches[0].flush_s - batches[0].arrival_s).tolist() == [0.0, 0.0, 0.0]


def test_arrival_exactly_at_deadline_joins_the_batch():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=1e-3))
    sched.submit(0, 1, 2, at=0.0)
    assert sched.submit(1, 3, 4, at=1e-3) == []  # joins, doesn't orphan
    (batch,) = sched.advance_to(1e-3)
    assert batch.tickets.tolist() == [0, 1]
    assert batch.flush_s == 1e-3


def test_zero_max_wait_flushes_as_soon_as_time_moves():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=100, max_wait_s=0.0))
    sched.submit(0, 1, 2, at=0.0)
    batches = sched.advance_to(0.0)
    assert len(batches) == 1
    assert batches[0].flush_s == 0.0
    assert (batches[0].flush_s - batches[0].arrival_s).tolist() == [0.0]


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------

def test_drain_flushes_everything_in_policy_sized_chunks():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=2, max_wait_s=10.0))
    submit_all(sched, [(0, 0, 0, 0.0)])
    sched.submit(1, 1, 1)  # at= omitted: arrives "now"
    sched.submit(2, 2, 2)
    # 3 pending (size trigger fired once at 2... no: max_batch_size=2 means the
    # second submission flushed [0, 1]); only ticket 2 is left.
    assert sched.pending_count == 1
    batches = sched.drain()
    assert [b.trigger for b in batches] == ["drain"]
    assert batches[0].tickets.tolist() == [2]
    assert sched.drain() == []


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def test_identical_traces_produce_identical_batches():
    def run():
        sched = MicroBatchScheduler(BatchPolicy(max_batch_size=8, max_wait_s=5e-4))
        rng = np.random.default_rng(42)
        arrivals = np.cumsum(rng.exponential(2e-4, size=50))
        out = []
        for i, t in enumerate(arrivals):
            out.extend(sched.submit(i, i, i + 1, at=float(t)))
        out.extend(sched.drain())
        return [(b.trigger, b.flush_s, b.tickets.tolist()) for b in out]

    assert run() == run()


def test_cuts_compare_batch_by_batch_by_row_content():
    def cut(xs=np.arange(6), at=np.zeros(6), start=0):
        sched = MicroBatchScheduler(BatchPolicy(max_batch_size=3, max_wait_s=1.0))
        if start:
            sched.submit_block(np.arange(start), np.arange(start), np.arange(start),
                               np.zeros(start))
        return sched.submit_block(np.arange(6), xs, np.arange(6) + 1, at)

    first, same = cut(), cut()
    assert len(first) == 2 and first[0].size == 3
    assert first == same and first == list(same) and same == first
    assert first != cut(xs=np.r_[0, 1, 2, 3, 9, 5])  # one row differs
    assert first != cut(at=np.full(6, 0.5))  # flushed at another instant
    assert first != cut(start=1)  # the same rows, one row further on
    assert first != list(first)[:1] and first != [] and first != [1, 2]


def test_submitting_into_the_past_is_rejected():
    sched = MicroBatchScheduler(BatchPolicy())
    sched.submit(0, 1, 2, at=1.0)
    with pytest.raises(ServiceError):
        sched.submit(1, 3, 4, at=0.5)


# ----------------------------------------------------------------------
# The stored deadline
# ----------------------------------------------------------------------
WAITS = (0.0, 1e-4, 2.5e-4, 1e-3)
GAPS = st.sampled_from([0.0, 5e-5, 1e-4, 2.5e-4, 1e-3, 3e-3])
STEPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), GAPS),
    st.tuples(st.just("submit_block"), st.lists(GAPS, min_size=1, max_size=40)),
    st.tuples(st.just("advance_to"), GAPS, st.booleans()),
    st.tuples(st.just("drain")),
    st.tuples(st.just("retune"), st.integers(1, 6), st.sampled_from(WAITS)),
    st.tuples(st.just("evict")),
), max_size=40)


def deadline_of_window(scheduler):
    """The deadline read off the pending window: ``inf`` when nothing waits.
    The window's rows are read by evicting them from a shallow copy, which
    leaves ``scheduler`` as it was."""
    arrivals = copy.copy(scheduler).evict()[3]
    return arrivals[0] + scheduler.policy.max_wait_s if arrivals.size else math.inf


@settings(max_examples=200, deadline=None)
@given(max_batch=st.integers(1, 6), wait=st.sampled_from(WAITS), steps=STEPS)
@example(max_batch=6, wait=1e-3, steps=[("submit_block", [0.0] * 40)] * 3
         + [("submit", 1e-4), ("retune", 6, 0.0), ("evict",), ("submit", 0.0)])
def test_the_stored_deadline_never_goes_stale(max_batch, wait, steps):
    """After every public call ``next_deadline`` is the pending window's head
    arrival plus ``max_wait_s``, bit for bit, and ``inf`` when idle — across
    buffer reallocations too, which the 64-row buffers here need every few calls.

    Mutations this catches, each applied by hand: no refresh in ``retune``,
    no refresh in ``evict``, no refresh after ``submit_block``'s cuts.
    """
    scheduler = MicroBatchScheduler(BatchPolicy(max_batch_size=max_batch, max_wait_s=wait))
    ticket = 0
    for op, *args in steps:
        now = scheduler.clock.now
        if op == "submit":
            scheduler.submit(ticket, 0, 1, at=now + args[0])
            ticket += 1
        elif op == "submit_block":
            at = now + np.cumsum(args[0])
            rows = np.arange(ticket, ticket + at.size)
            scheduler.submit_block(rows, rows, rows + 1, at)
            ticket += at.size
        elif op == "advance_to":
            scheduler.advance_to(now + args[0], include_equal=args[1])
        elif op == "retune":
            scheduler.retune(BatchPolicy(max_batch_size=args[0], max_wait_s=args[1]))
        else:
            getattr(scheduler, op)()
        assert scheduler.next_deadline.hex() == deadline_of_window(scheduler).hex(), op


def test_a_rowwise_stream_calls_advance_to_only_at_a_due_deadline(monkeypatch):
    """A row-wise query whose arrival reaches no deadline makes no expiry call:
    across two datasets, ``MicroBatchScheduler.advance_to`` runs only where it
    flushes a wait batch (a deadline an arrival lands on exactly stays
    pending for the submitted dataset, and is not called for).  An expiry
    test on ``pending_count`` makes about one call per query."""
    reached = []
    advance_to = MicroBatchScheduler.advance_to

    def spy(scheduler, t, **kwargs):
        reached.append((scheduler.next_deadline, t))
        return advance_to(scheduler, t, **kwargs)

    monkeypatch.setattr(MicroBatchScheduler, "advance_to", spy)
    trees = {"a": random_attachment_tree(300, seed=1), "b": random_attachment_tree(200, seed=2)}
    svc = LCAQueryService(config=ServiceConfig(max_batch_size=6, max_wait_s=2e-4))
    rng = np.random.default_rng(7)
    q = 3000
    gaps = rng.exponential(3e-5, q)
    gaps[rng.random(q) < 0.2] = 0.0  # ties with the previous arrival
    arrivals = np.cumsum(gaps)
    names = rng.choice(["a", "b"], q)
    queries = [(name, *rng.integers(0, trees[name].size, 2)) for name in names]
    for name, parents in trees.items():
        svc.register_tree(name, parents)
    tickets = [svc.submit(name, int(x), int(y), at=float(t))
               for (name, x, y), t in zip(queries, arrivals)]
    svc.drain()
    oracles = {name: BinaryLiftingLCA(parents) for name, parents in trees.items()}
    assert svc.results(np.array(tickets)).tolist() == [
        int(oracles[name].query(np.array([x]), np.array([y]))[0]) for name, x, y in queries]
    waits = svc.stats().flush_triggers["wait"]
    assert all(deadline <= t for deadline, t in reached)
    assert 0 < len(reached) <= waits
    assert len(reached) < q // 4


@pytest.mark.parametrize("datasets", [1, 2])
def test_a_stream_on_an_exact_grid_serves_no_empty_run(monkeypatch, datasets):
    """Arrivals 5 us apart under a 200 us wait: a deadline often lands exactly
    on an arrival, which joins that batch, so the submission serves nothing
    then; with a second dataset interleaved, its deadline at that instant
    flushes.  Either way no ``_serve_run`` call gets an empty run."""
    runs = []
    serve_run = LCAQueryService._serve_run

    def spy(service, run):
        runs.append(len(run))
        return serve_run(service, run)

    monkeypatch.setattr(LCAQueryService, "_serve_run", spy)
    names = ["a", "b"][:datasets]
    trees = {name: random_attachment_tree(500, seed=k) for k, name in enumerate(names)}
    svc = LCAQueryService(config=ServiceConfig(max_batch_size=256, max_wait_s=2e-4))
    for name, parents in trees.items():
        svc.register_tree(name, parents)
    q = 4000
    rng = np.random.default_rng(3)
    xs, ys = rng.integers(0, 500, (2, q)).tolist()
    arrivals = (np.arange(q) * 5e-6).tolist()
    deadlines, tickets = set(), []
    for i, (x, y, t) in enumerate(zip(xs, ys, arrivals)):
        name = names[i % datasets]
        deadlines.add(svc._scheduler(name).next_deadline)
        tickets.append(svc.submit(name, x, y, at=t))
    assert len(deadlines & set(arrivals)) > q // 100  # the grid makes ties
    assert runs and 0 not in runs
    svc.drain()
    answers = svc.results(np.array(tickets))
    for k, name in enumerate(names):
        expected = BinaryLiftingLCA(trees[name]).query(
            np.array(xs[k::datasets]), np.array(ys[k::datasets]))
        assert np.array_equal(answers[k::datasets], expected)


# ----------------------------------------------------------------------
# Scalar admission: the boundaries ``submit`` handles itself
# ----------------------------------------------------------------------

def test_a_scalar_stream_across_table_growth_and_buffer_refills_matches_a_block():
    """3,000 tickets outgrow the ticket table's first 1,024 and 2,048 rows, and
    the scheduler's 2 x 100-row buffer is replaced many times: the oracle's
    answers, and latencies bit-equal to one ``submit_many`` of the same rows."""
    parents = random_attachment_tree(700, seed=4)
    rng = np.random.default_rng(5)
    q = 3000
    xs, ys = rng.integers(0, parents.size, (2, q))
    arrivals = np.cumsum(rng.exponential(1.2e-6, q))
    config = ServiceConfig(max_batch_size=100, max_wait_s=1e-4)
    scalar, block = LCAQueryService(config=config), LCAQueryService(config=config)
    for svc in (scalar, block):
        svc.register_tree("t", parents)
    tickets = [scalar.submit("t", x, y, at=t)
               for x, y, t in zip(xs.tolist(), ys.tolist(), arrivals.tolist())]
    assert tickets == list(range(q))
    assert block.submit_many("t", xs, ys, at=arrivals).tolist() == tickets
    for svc in (scalar, block):
        svc.drain()
    assert np.array_equal(scalar.results(tickets), BinaryLiftingLCA(parents).query(xs, ys))
    assert scalar.latencies(tickets).tobytes() == block.latencies(tickets).tobytes()
    triggers = scalar.stats().flush_triggers
    assert triggers == block.stats().flush_triggers and triggers["size"] and triggers["wait"]


def test_a_failing_lazy_loader_issues_nothing_and_stays_retryable():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("transient")
        return np.array([-1, 0, 0, 1])

    svc = LCAQueryService()
    svc.register_tree("lazy", loader=flaky)
    with pytest.raises(OSError):
        svc.submit("lazy", 2, 3, at=0.0)
    assert svc.tickets_issued == 0 and svc.stats().queries_submitted == 0
    assert "lazy" not in svc._admission
    assert svc.submit("lazy", 2, 3, at=0.0) == 0
    svc.drain()
    assert svc.result(0) == 0 and len(attempts) == 2
