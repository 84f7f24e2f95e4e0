"""Runs and spans: the host does a contiguous span of flushed batches' work once.

``LCAQueryService._serve_run`` serves an ordered run of flushed batches.  What
the simulated timeline sees stays per batch; the host work — on the plain path
one kernel piece, on the skew-aware path a launch, the pack, the cache probe,
the dedup and the insert — is shared by the batches of one dataset that are
adjacent slices of one scheduler buffer, once the interceptor has taken its
claims out of the run.  A plain span's piece is deferred to the ticket table
(:func:`deferred` logs them), which runs every pending piece, one launch per
index, before an answer is read or once the pending lanes reach its bound.

Answers, latencies, stats and the cache and registry counters a caller can
observe are held against the executable spec of the serving timeline
(``tests/spec_serving.py``), which knows nothing of spans.  Two observables
the spec does not model — the observer's canonical trace and the registry's
LRU order and evictions — are held by one property,
``test_property_cached_spans_equal_one_batch_runs``, against the same code
handed one-batch runs (:func:`per_batch`); it also holds each batch's events
in lifecycle order (:func:`in_lifecycle_order`).  A recorder changes no
booking: the stretches are the same traced or not.  The tests here pin what
spans do to the host: launches, slices, buffers and bookings.

Each of these mutations was applied by hand and fails the test named beside it:

* an off-by-one in the slice a deferred piece's answers land from
  (``answers[at + 1:...]`` in ``TicketTable.resolve``) —
  ``test_a_block_is_one_launch_of_all_its_lanes``;
* forming spans before the interceptor's claims leave the run (offer each
  batch as it is reached, and skip it) —
  ``test_claimed_batches_skip_their_slice[middle]``;
* keying a run's open spans by dataset instead of by scheduler call
  (``spans[dataset]`` in ``_serve_run``) — ``test_batches_in_two_buffers_are_two_spans``;
* on the skew-aware path, the five listed on
  ``test_property_cached_spans_equal_one_batch_runs``;
* booking a span's charges with a pairwise ``np.sum`` —
  ``test_busy_time_adds_a_span_s_charges_left_to_right``;
* fetching an artifact once per lane even after a miss (no per-batch
  fallback) — ``test_a_span_across_the_crossover_books_like_one_batch_runs
  [one-artifact]``; fetching the lanes in order of first use — its ``[warm]``;
* adding ``debt`` to one-batch bookings only —
  ``test_failover_readmissions_carry_their_debt_through_a_span``;
* a hedge that launches its duplicate (``launch(entry.artifact, xs, ys)`` in
  ``serve_hedge``) — ``test_a_hedge_books_a_duplicate_but_computes_nothing``;
* resolving one group per read (``if`` for ``while`` in ``resolve``) —
  ``test_reading_one_ticket_resolves_everything_pending``;
* no lane bound (drop the check in ``defer``) —
  ``test_pending_lanes_never_reach_the_bound``;
* grouping pieces by artifact, not by the host tables it reads
  (``id(artifact)``) — ``test_reading_one_ticket_resolves_everything_pending``
  and ``test_a_four_replica_cluster_answers_one_index_in_one_launch``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA, pack_query_pairs
from repro.obs import TraceRecorder
from repro.obs.events import (
    EV_CACHE_HITS,
    EV_CACHE_INSERT,
    EV_CACHE_MISSES,
    EV_COMPLETE,
    EV_DISPATCH,
    EV_FLUSH,
    EV_KERNEL_END,
    EV_KERNEL_START,
)
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    LCAQueryService,
    ServiceConfig,
    StatsCollector,
)
from repro.service import service as service_module
from repro.service import tickets as tickets_module
from repro.workloads import Phase, PoissonArrivals, Scenario, TrafficSource, replay

from .conftest import spec_config
from .spec_serving import SpecCluster, SpecService, observables
from .test_serving_golden_timeline import RAMP, WIDE_BATCHING, poisson_stream

#: Scheduler buffers start at 64 rows under this policy, so a few dozen
#: queries are enough to cross a reallocation.
POLICY = {"max_batch_size": 16, "max_wait_s": 1e-4}
N = 600
#: Batch sizes on either side of the default dispatcher's CPU/GPU crossover.
CROSSOVER = LCAQueryService().dispatcher.crossover_batch_size()
SMALL, BIG = CROSSOVER // 2, 2 * CROSSOVER


class CountingArtifact:
    """An LCA artifact that logs ``(dataset, xs, ys)`` of every ``query``."""

    def __init__(self, inner, dataset, log):
        self.inner, self.n, self.structure = inner, inner.n, inner.structure
        self._dataset, self._log = dataset, log

    def query(self, xs, ys, *, ctx=None):
        self._log((self._dataset, xs, ys))
        return self.inner.query(xs, ys, ctx=ctx)


def count_launches(service):
    """Wrap every LCA artifact ``service`` builds from now on; returns the log."""
    launches = []
    build = service.registry._build

    def counting_build(key, ctx):
        entry = build(key, ctx)  # sized before it is wrapped
        entry.artifact = CountingArtifact(entry.artifact, key.dataset, launches.append)
        return entry

    service.registry._build = counting_build
    return launches


def lanes(launches):
    return [(dataset, int(xs.size)) for dataset, xs, _ in launches]


def count_calls(obj, name):
    """Log the positional arguments of every ``obj.name(...)`` from now on."""
    calls, method = [], getattr(obj, name)

    def counting(*args):
        calls.append(args)
        return method(*args)

    setattr(obj, name, counting)
    return calls


def deferred(target):
    """Log ``(artifact, window, xs, ys)`` of every launch a booking defers to
    ``target``'s ticket table (one per plain span) from now on."""
    return count_calls(target._tickets, "defer")


def pieces(log):
    """``[(dataset, lanes)]`` of a :func:`deferred` log, in deferral order."""
    return [(artifact._dataset, int(xs.size)) for artifact, _, xs, _ in log]


def per_batch(service):
    """Make ``service`` serve every batch as its own run: a launch per batch."""
    serve_run = service._serve_run
    service._serve_run = lambda run: [serve_run([(dataset, cuts, k, k + 1)])
                                      for dataset, cuts, k0, k1 in run
                                      for k in range(k0, k1)]


def make_service(trees, *, reference=False, traced=True, **knobs):
    """``(service, launches, observer)`` over ``{name: parents}``.

    A span's run-adjacent batches are booked together, traced or not
    (``observer`` None); ``reference`` serves one-batch runs (:func:`per_batch`).
    """
    service = LCAQueryService(config=ServiceConfig(**{**POLICY, **knobs}))
    if reference:
        per_batch(service)
    launches = count_launches(service)
    observer = TraceRecorder() if traced else None
    service.attach_observer(observer)
    for name, parents in trees.items():
        service.register_tree(name, parents)
    return service, launches, observer


def observed(service, observer):
    """All a caller can see of a drained service, its trace canonicalized.

    A booking records its batches' events after the index loads, evictions
    and hedges it caused, where one-batch runs interleave them: only the
    order differs, so the trace is compared as a sorted table (labels too).
    """
    tickets = np.arange(service.tickets_issued)
    answered = service._tickets.answered[tickets]  # all, unless an interceptor claimed
    tickets = tickets[answered]
    registry, stats, cache = service.registry, service.stats(), service.answer_cache
    events = []
    if observer is not None:
        table = observer.table().canonical()
        events = [column.tobytes() for column in (
            table.time_s, table.kind, table.ticket, table.batch, table.replica,
            table.detail, table.aux)] + [list(table.labels)]
    return {
        "answered": answered.tolist(),
        "answers": service.results(tickets).tolist(),
        "latencies": service.latencies(tickets).tobytes(),
        "cache": ((stats.answer_cache_hits, stats.answer_cache_misses,
                   stats.answer_cache_resets), cache and (
                   cache.hits, cache.misses, cache.resets)),
        "events": events,
        "stats_repr": repr(stats),
        "registry": (registry.hits, registry.misses, registry.evictions,
                     # Least- to most-recently used, with each entry's own hits.
                     [(str(key), registry.fetch_by_key(key)[0].hits)
                      for key in registry.keys()]),
    }


#: A batch's events, in the order its life records them.
LIFECYCLE = (EV_FLUSH, EV_CACHE_HITS, EV_CACHE_MISSES, EV_DISPATCH, EV_CACHE_INSERT,
             EV_KERNEL_START, EV_KERNEL_END, EV_COMPLETE)


def in_lifecycle_order(table):
    """Whether every batch id's :data:`LIFECYCLE` events are recorded in order."""
    rank, reached = {kind: r for r, kind in enumerate(LIFECYCLE)}, {}
    for batch, kind in zip(table.batch.tolist(), table.kind.tolist()):
        if batch >= 0 and kind in rank:
            if rank[kind] < reached.get(batch, 0):
                return False
            reached[batch] = rank[kind]
    return True


def spec_service(trees, **knobs):
    """The spec of ``make_service(trees, **knobs)``."""
    spec = SpecService(ServiceConfig(**{**POLICY, **knobs}))
    for name, parents in trees.items():
        spec.register_tree(name, parents)
    return spec


def tree(seed, n=N):
    return random_attachment_tree(n, seed=seed)


def queries(q, seed, n=N):
    return generate_random_queries(n, q, seed=seed)


def oracle(parents, xs, ys):
    return BinaryLiftingLCA(parents).query(xs, ys)


#: 40 together (two size flushes, 8 left waiting), a quiet gap that expires
#: them, 20 more (one size flush): batches of 16, 16, 8, 16 and a tail of 4.
MIXED_ARRIVALS = np.r_[np.zeros(40), np.full(20, 1e-3)]
MIXED_SIZES = [16, 16, 8, 16]


# ----------------------------------------------------------------------
# One launch per span
# ----------------------------------------------------------------------
def test_a_block_is_one_launch_of_all_its_lanes():
    parents = tree(0)
    xs, ys = queries(60, 1)
    service, launches, _ = make_service({"t": parents})
    log = deferred(service)
    tickets = service.submit_many("t", xs, ys, at=MIXED_ARRIVALS)
    stats = service.stats()
    assert stats.batches_flushed == 4
    assert stats.flush_triggers == {"size": 3, "wait": 1}
    assert pieces(log) == [("t", 56)]
    service.drain()
    assert pieces(log) == [("t", 56), ("t", 4)]
    assert service.stats().kernel_queries == 60
    # Booked, answered, and nothing launched until the read: then both
    # spans' pieces are one launch.
    assert launches == [] and service._tickets.answered[tickets].all()
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))
    assert lanes(launches) == [("t", 60)]


def test_lanes_executed_equal_queries_answered_over_a_replay():
    scenario = Scenario(
        name="runs-replay",
        description="calm, a short flash, calm again: wait and size flushes",
        sources=(TrafficSource("a", nodes=2048, tree_seed=1),
                 TrafficSource("b", nodes=512, tree_seed=2)),
        phases=(Phase("calm", PoissonArrivals(100_000.0), 0.01),
                Phase("flash", PoissonArrivals(1_500_000.0), 0.002),
                Phase("recovery", PoissonArrivals(100_000.0), 0.01)),
        seed=3,
        mix_stride=256,
    )
    service = LCAQueryService(
        config=ServiceConfig(max_batch_size=64, max_wait_s=2e-4))
    launches, log = count_launches(service), deferred(service)
    replay(service, scenario, admission_window_s=5e-3)
    service.results(np.arange(service.tickets_issued))
    stats = service.stats()
    assert stats.queries_answered == service.tickets_issued > 3000
    executed = sum(size for _, size in lanes(launches))
    assert executed == sum(size for _, size in pieces(log))
    assert executed == stats.queries_answered == stats.kernel_queries
    # Spans, not batches, are what the host deferred; reads coalesce them.
    assert 3 * len(log) < stats.batches_flushed
    assert len(launches) < len(log)


def test_retuning_to_pass_through_serves_the_window_in_one_launch():
    parents = tree(4)
    xs, ys = queries(10, 5)
    service, launches, _ = make_service({"t": parents}, max_batch_size=64,
                                        max_wait_s=1.0)
    log = deferred(service)
    tickets = service.submit_many("t", xs, ys, at=np.zeros(10))
    assert service.pending_count("t") == 10
    service.apply_tuning(max_batch_size=1)
    stats = service.stats()
    assert stats.batch_size_histogram == {1: 10}
    assert pieces(log) == [("t", 10)] and launches == []
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))
    assert lanes(launches) == [("t", 10)]


# ----------------------------------------------------------------------
# Interceptor claims
# ----------------------------------------------------------------------
@pytest.mark.parametrize("claimed", [{0}, {2}, {3}, {0, 1}, {0, 1, 2, 3}],
                         ids=["first", "middle", "last", "first-two", "all"])
def test_claimed_batches_skip_their_slice(claimed):
    parents = tree(6)
    xs, ys = queries(60, 7)
    service, launches, _ = make_service({"t": parents})
    log, offered = deferred(service), []

    def interceptor(dataset, batch):
        offered.append(batch)
        return len(offered) - 1 in claimed

    service.set_serve_interceptor(interceptor)
    tickets = service.submit_many("t", xs, ys, at=MIXED_ARRIVALS)
    assert [batch.size for batch in offered] == MIXED_SIZES

    # Claims leave the run before spans form: a deferred piece is a maximal
    # stretch of unclaimed adjacent batches, and a claimed batch's lanes are
    # never launched; a dead replica (every batch claimed) defers nothing.
    served = [k for k in range(4) if k not in claimed]
    stretches = []
    for k in served:
        if k - 1 in served:
            stretches[-1] += MIXED_SIZES[k]
        else:
            stretches.append(MIXED_SIZES[k])
    assert pieces(log) == [("t", size) for size in stretches]
    assert launches == []

    expected = oracle(parents, xs, ys)
    bounds = np.r_[0, np.cumsum(MIXED_SIZES)]
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if k in claimed:
            # Unanswered here, and parked with exactly its own columns.
            assert not service._tickets.answered[tickets[a:b]].any()
            assert np.array_equal(offered[k].tickets, tickets[a:b])
            assert np.array_equal(offered[k].xs, xs[a:b])
            assert np.array_equal(offered[k].ys, ys[a:b])
            assert np.array_equal(offered[k].arrival_s, MIXED_ARRIVALS[a:b])
        else:
            assert np.array_equal(service.results(tickets[a:b]), expected[a:b])
    assert service.stats().queries_answered == sum(MIXED_SIZES[k] for k in served)
    # The first read ran every piece, as one launch.
    assert lanes(launches) == ([("t", sum(stretches))] if stretches else [])


def test_a_dead_replica_launches_nothing_and_failover_answers():
    parents = tree(8, 256)
    xs, ys = queries(600, 9, 256)
    arrivals = np.arange(600, dtype=np.float64) / 200_000.0
    injector = FaultInjector([
        FaultEvent(time_s=float(arrivals[200]), action="transient", replica=1,
                   count=3),
        FaultEvent(time_s=float(arrivals[300]), action="kill", replica=0),
    ])
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=2, router="round-robin", **POLICY),
        fault_injector=injector)
    logs = [count_launches(worker) for worker in cluster.replicas]
    log = deferred(cluster)
    cluster.register_tree("t", parents, replicas=2)
    tickets = np.concatenate([
        cluster.submit_many("t", xs[i:i + 100], ys[i:i + 100],
                            at=arrivals[i:i + 100])
        for i in range(0, 600, 100)])

    def on_dead_replica():  # pieces its own artifacts were deferred with
        return sum(artifact._log.__self__ is logs[0] for artifact, *_ in log)

    before = on_dead_replica()
    cluster.drain()
    assert on_dead_replica() == before and len(log) > before
    assert cluster.stats().queries_retried > 0
    assert np.array_equal(cluster.results(tickets), oracle(parents, xs, ys))


def test_a_hedge_books_a_duplicate_but_computes_nothing():
    parents = tree(10, 128)
    xs, ys = queries(256, 11, 128)
    arrivals = np.arange(256, dtype=np.float64) / 200_000.0
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=2, router="round-robin",
                             hedge_delay_s=1e-4, max_batch_size=64,
                             max_wait_s=1e-4),
        fault_injector=FaultInjector(
            [FaultEvent(time_s=0.0, action="slowdown", replica=0, factor=1e6)]))
    logs = [count_launches(worker) for worker in cluster.replicas]
    cluster.register_tree("t", parents, replicas=2)
    tickets = np.concatenate([
        cluster.submit_many("t", xs[i:i + 64], ys[i:i + 64], at=arrivals[i:i + 64])
        for i in range(0, 256, 64)])
    cluster.drain()
    stats = cluster.stats()
    assert stats.hedges_issued > 0 and stats.hedges_won > 0
    assert np.array_equal(cluster.results(tickets), oracle(parents, xs, ys))
    # The model ran every hedged batch twice; the host answered each query
    # once, in one launch at the read (both replicas' views share one index).
    assert [size for log in logs for _, size in lanes(log)] == [256]


@pytest.mark.parametrize("cache", [None, 4 << 20], ids=["plain", "cache-on"])
def test_no_submitted_block_serves_an_empty_run(cache):
    """Blocks of 8 on a 5 µs grid, a 200 µs wait: most blocks flush nothing and
    expire nothing, and every deadline lands on an arrival (the sixth block's
    first lands on the first block's, and joins its batch).  Neither reaches
    ``_serve_run`` with an empty run; the wait flushes still do."""
    service, _, _ = make_service({"t": tree(57)}, traced=False, max_batch_size=64,
                                 max_wait_s=2e-4, answer_cache_bytes=cache)
    runs = count_calls(service, "_serve_run")
    xs, ys = queries(160, 58)
    at = np.arange(160) * 5e-6
    for i in range(0, 160, 8):
        service.submit_many("t", xs[i:i + 8], ys[i:i + 8], at=at[i:i + 8])
    lengths = [len(run) for run, in runs]
    assert lengths == [1] * 3  # the wait flushes at 41, 82 and 123 arrivals
    service.drain()
    assert np.array_equal(service.results(np.arange(160)), oracle(tree(57), xs, ys))


# ----------------------------------------------------------------------
# Buffers: adjacency is offsets in one buffer, never across two
# ----------------------------------------------------------------------
def assert_zero_copy_spans(log):
    """Every deferred piece's operands are plain slices of one scheduler
    buffer each (a :func:`deferred` log)."""
    for _, _, xs, ys in log:
        assert xs.base is not None and xs.base.base is None
        assert ys.base is not None and ys.base.base is None
        assert xs.base.size == ys.base.size >= 64


def test_a_pending_tail_carried_across_a_reallocation_joins_the_next_span():
    parents = tree(12)
    xs, ys = queries(102, 13)
    service, launches, _ = make_service({"t": parents})
    log = deferred(service)
    # 60 rows of the 64-row buffer: three size flushes, 12 rows pending.
    first = service.submit_many("t", xs[:60], ys[:60], at=np.zeros(60))
    buffer = service._schedulers["t"]._columns[1]
    # 42 more do not fit: the tail migrates, then flushes with its new rows.
    second = service.submit_many("t", xs[60:], ys[60:], at=np.full(42, 5e-5))
    assert service._schedulers["t"]._columns[1] is not buffer
    assert pieces(log) == [("t", 48), ("t", 48)]
    assert log[0][2].base is buffer
    assert log[1][2].base is service._schedulers["t"]._columns[1]
    service.drain()
    assert_zero_copy_spans(log)
    assert np.array_equal(service.results(np.r_[first, second]),
                          oracle(parents, xs, ys))
    assert lanes(launches) == [("t", 102)]


def test_rowwise_submission_across_reallocations_never_spans_two_buffers():
    parents = tree(14)
    xs, ys = queries(300, 15)
    arrivals = np.cumsum(np.random.default_rng(16).choice((0.0, 2e-5, 4e-5), 300))
    service, launches, _ = make_service({"t": parents})
    log = deferred(service)
    tickets = [service.submit("t", int(x), int(y), at=float(t))
               for x, y, t in zip(xs, ys, arrivals)]
    service.drain()
    assert len({id(x.base) for _, _, x, _ in log}) > 2  # buffers were refilled
    assert_zero_copy_spans(log)
    assert sum(size for _, size in pieces(log)) == 300
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))
    assert lanes(launches) == [("t", 300)]


def test_batches_in_two_buffers_are_two_spans():
    # One scheduler call's batches share a buffer; two calls' need not.
    # Build the worst case — the second starts, in its own buffer, at the very
    # row where the first ended in the other — from batches a claiming
    # interceptor parked, then serve them as one run.
    parents = tree(17)
    xs, ys = queries(68, 18)
    at = np.r_[np.zeros(4), np.full(52, 1e-3), np.full(12, 2e-3)]
    service, launches, _ = make_service({"t": parents})
    log, parked, serve_run = deferred(service), [], service._serve_run
    service._serve_run = parked.extend
    tickets = np.r_[
        service.submit_many("t", xs[:4], ys[:4], at=at[:4]),
        # The 4 expire; 52 more fill rows 4..56: three size flushes, 4 pending.
        service.submit_many("t", xs[4:56], ys[4:56], at=at[4:56]),
        # 12 more do not fit in 64 rows: the 4 pending migrate to rows 0..4 of
        # a new buffer and expire there; the 12 wait in its rows 4..16.
        service.submit_many("t", xs[56:], ys[56:], at=at[56:]),
    ]
    service.drain()
    run = [(dataset, cuts, k, k + 1) for dataset, cuts, k0, k1 in parked
           for k in range(k0, k1)]
    batches = [cuts[k] for _, cuts, k, _ in run]
    assert [(b.start, b.size) for b in batches] == [
        (0, 4), (4, 16), (20, 16), (36, 16), (0, 4), (4, 12)]
    old, new = batches[0], batches[-1]
    assert old.xs.base is not new.xs.base and old.start + old.size == new.start

    serve_run([run[0], run[-1]])
    assert pieces(log) == [("t", 4), ("t", 12)]
    assert_zero_copy_spans(log)
    expected = oracle(parents, xs, ys)
    for batch in (old, new):
        assert np.array_equal(service.results(batch.tickets),
                              expected[batch.tickets - tickets[0]])
    assert lanes(launches) == [("t", 16)]


# ----------------------------------------------------------------------
# Launch on read: the ticket table runs what the bookings deferred
# ----------------------------------------------------------------------
def test_reading_one_ticket_resolves_everything_pending():
    # On ``a`` a wait-flushed small span (cpu1) and a size-flushed big one
    # (gpu): two flavours' views of one index, so one launch; ``b`` its own.
    trees = {"a": tree(72), "b": tree(73)}
    xs, ys = queries(SMALL + BIG, 74)
    service, launches, _ = make_service(trees, traced=False, max_batch_size=BIG)
    log = deferred(service)
    small = service.submit_many("a", xs[:SMALL], ys[:SMALL], at=np.zeros(SMALL))
    service.advance_to(5e-4)
    big = service.submit_many("a", xs[SMALL:], ys[SMALL:], at=np.full(BIG, 1e-3))
    other = service.submit_many("b", ys, xs, at=np.full(SMALL + BIG, 2e-3))
    service.drain()
    assert service.stats().backend_choices == {"cpu1": 2, "gpu": 2}
    assert pieces(log) == [("a", SMALL), ("a", BIG), ("b", BIG), ("b", SMALL)]
    assert launches == [] and service._tickets.pending_lanes == 2 * (SMALL + BIG)
    expected = oracle(trees["a"], xs, ys)
    assert service.result(int(small[0])) == expected[0]
    assert lanes(launches) == [("a", SMALL + BIG), ("b", SMALL + BIG)]
    assert service._tickets.pending_lanes == 0
    assert np.array_equal(service.results(np.r_[small, big]), expected)
    assert np.array_equal(service.results(other), oracle(trees["b"], ys, xs))
    assert len(launches) == 2


def test_pending_lanes_never_reach_the_bound(monkeypatch):
    monkeypatch.setattr(tickets_module, "_LAUNCH_LANES", 100)
    parents = tree(77)
    xs, ys = queries(1000, 78)
    arrivals = np.cumsum(np.random.default_rng(79).choice((0.0, 2e-5, 2e-4), 1000))
    service, launches, _ = make_service({"t": parents}, traced=False)
    table, held = service._tickets, []
    defer = table.defer

    def watching(*args):
        defer(*args)
        held.append(table.pending_lanes)

    table.defer = watching
    tickets = np.concatenate([
        service.submit_many("t", xs[i:i + 50], ys[i:i + 50], at=arrivals[i:i + 50])
        for i in range(0, 1000, 50)])
    service.drain()
    # Unread, the table launched each time its pieces reached the bound.
    assert len(held) > 20 and max(held) < 100
    assert len(launches) > 5 and min(size for _, size in lanes(launches)) >= 100
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))
    assert sum(size for _, size in lanes(launches)) == 1000


def test_a_four_replica_cluster_answers_one_index_in_one_launch():
    parents = tree(75, 256)
    xs, ys = queries(800, 76, 256)
    arrivals = np.arange(800, dtype=np.float64) / 400_000.0
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=4, router="round-robin", **POLICY))
    logs = [count_launches(worker) for worker in cluster.replicas]
    log = deferred(cluster)
    cluster.register_tree("t", parents, replicas=0)
    tickets = np.concatenate([
        cluster.submit_many("t", xs[i:i + 100], ys[i:i + 100], at=arrivals[i:i + 100])
        for i in range(0, 800, 100)])
    cluster.drain()
    # Every replica deferred spans into the cluster's one table, through its
    # own view of the one index the store holds.
    assert {id(artifact._log.__self__) for artifact, *_ in log} == set(map(id, logs))
    assert len({id(artifact.structure) for artifact, *_ in log}) == 1
    assert np.array_equal(cluster.results(tickets), oracle(parents, xs, ys))
    assert [size for launches in logs for _, size in lanes(launches)] == [800]


# ----------------------------------------------------------------------
# Interleaved datasets: spans are per dataset, order is the run's
# ----------------------------------------------------------------------
def interleaved_stream(service):
    """A block on ``a`` while ``b`` and ``c`` wait: their deadlines fire between
    its size flushes (the merged branch); then one sweep expires all three."""
    q = 120
    xs, ys = queries(q, 20)
    arrivals = 4e-5 + np.arange(q, dtype=np.float64) * 1e-5
    for i in range(4):
        service.submit("b", 3 * i, 3 * i + 1, at=i * 1e-5)
    for i in range(3):
        service.submit("c", 5 * i, 5 * i + 2, at=3.5e-5 + i * 1e-6)
    service.submit_many("a", xs, ys, at=arrivals)
    t = float(arrivals[-1])
    service.submit_many("b", xs[:5], ys[:5], at=np.full(5, t))
    service.submit_many("c", xs[5:9], ys[5:9], at=np.full(4, t))
    service.advance_to(t + 1.0)
    service.drain()


def test_interleaved_datasets_keep_one_span_each_and_the_serving_order():
    trees = {"a": tree(21), "b": tree(22), "c": tree(23)}
    service, launches, observer = make_service(trees, max_wait_s=5e-4)
    log, order = deferred(service), []
    service.set_serve_interceptor(lambda dataset, batch: order.append(dataset))
    interleaved_stream(service)
    spec = spec_service(trees, max_wait_s=5e-4)
    interleaved_stream(spec)

    # b and c are served between a's batches, in the block and in the sweep,
    # exactly when the spec serves them ...
    assert "".join(order) == "aabacaaaa" + "abc"
    assert observables(service) == observables(spec)
    # ... and a's seven batches are still one span, deferred at its first.
    assert pieces(log) == [("a", 112), ("b", 4), ("c", 3),
                           ("a", 8), ("b", 5), ("c", 4)]
    # The read launches once per tree, whatever the spans.
    service.results(np.arange(service.tickets_issued))
    assert sorted(lanes(launches)) == [("a", 120), ("b", 9), ("c", 7)]


def spans_of(run):
    """The span rule restated: ``[(dataset, batches)]`` in opening order, a
    span per scheduler call's ``Cuts``, each batch starting in the buffer where
    the last ended."""
    spans, open_span = [], {}
    for dataset, cuts, k0, k1 in run:
        batches = open_span.get(id(cuts))
        if batches is None:
            batches = open_span[id(cuts)] = []
            spans.append((dataset, batches))
        for k in range(k0, k1):
            batch = cuts[k]
            assert not batches or (batch.xs.base is batches[-1].xs.base and
                                   batch.start == batches[-1].start + batches[-1].size)
            batches.append(batch)
    return spans


def test_a_cached_span_is_one_pack_probe_dedup_launch_and_insert(monkeypatch):
    # The span contract on the skew-aware path.  A 150-pair pool, so keys
    # repeat within a batch, across the batches of a span and across spans;
    # an oversized tree (forced here, by lowering the packing's limit: a real
    # one needs 2**32 nodes) rides the same runs on the plain path.
    trees = {"hot": tree(24), "wide": tree(25, n=N + 1)}
    monkeypatch.setattr(service_module, "PACK_LIMIT", N)
    pool_x, pool_y = queries(150, 27)

    def stream(service):
        rng = np.random.default_rng(26)
        t = 0.0
        for _ in range(12):
            pick = rng.integers(0, 150, size=70)
            at = t + np.sort(rng.random(70)) * 4e-4
            service.submit_many("wide", pool_x[pick[:20]], pool_y[pick[:20]],
                                at=at[:20])
            service.submit_many("hot", pool_x[pick], pool_y[pick],
                                at=np.maximum(at, at[19]))
            t = float(at[-1]) + 1e-5
        service.drain()

    service, launches, _ = make_service(trees, dedup=True, answer_cache_bytes=1 << 16)
    runs = count_calls(service, "_serve_run")
    lookups = count_calls(service.answer_cache, "lookup")
    inserts = count_calls(service.answer_cache, "insert")
    stream(service)
    assert service.stats().answer_cache_hits > 0

    # One probe a span (and one per front-door block); one launch and one
    # insert a span that misses anything, of its distinct missing pairs only.
    table, probes, missing = set(), 12, []
    for (run,) in runs:
        for dataset, batches in spans_of(run):
            if dataset == "hot":
                keys = set(np.concatenate([
                    pack_query_pairs(b.xs, b.ys) for b in batches]).tolist())
                probes += 1
                if keys - table:
                    missing.append(sorted(keys - table))
                table |= keys
    hot = [sorted(pack_query_pairs(xs, ys).tolist())
           for dataset, xs, ys in launches if dataset == "hot"]
    assert hot == missing == [sorted(keys.tolist()) for _, keys, _ in inserts]
    assert len(lookups) == probes
    assert any(len(batches) > 2 for (run,) in runs for _, batches in spans_of(run))
    assert len(hot) < sum(len(batches) for (run,) in runs
                          for dataset, batches in spans_of(run) if dataset == "hot")


# ----------------------------------------------------------------------
# Cached spans ≡ one-batch runs
# ----------------------------------------------------------------------
def claim_some(modulus):
    """An interceptor claiming a fixed pseudo-random ``1 / modulus`` of batches."""
    def interceptor(dataset, batch):
        return (int(batch.tickets[0]) * 2654435761 >> 7) % modulus == 0
    return interceptor if modulus else None


def mixed_stream(service, names, *, pool, seed, steps=10):
    """Blocks, rows and idle gaps on ``names``, keys from a ``pool``-pair pool.

    A block is often preceded by an unfinished batch on the other dataset,
    whose wait deadline then fires between the block's own flushes.
    """
    rng = np.random.default_rng(seed)
    pool_x, pool_y = queries(pool, seed + 1, 300)
    t = 0.0

    def rows(name):
        nonlocal t
        for k in rng.integers(0, pool, size=rng.integers(1, 6)):
            t += rng.choice((0.0, 2e-5))
            service.submit(name, int(pool_x[k]), int(pool_y[k]), at=t)

    for _ in range(steps):
        name = names[rng.integers(len(names))]
        op = rng.integers(5)
        if op == 0:
            t += rng.choice((5e-5, 3e-4))
            service.advance_to(t)
        elif op == 1:
            rows(name)
        else:
            if op == 2:
                k = rng.integers(0, pool, size=rng.integers(
                    1, service.policy.max_batch_size))
                service.submit_many(names[-1] if name == names[0] else names[0],
                                    pool_x[k], pool_y[k], at=np.full(k.size, t))
            # Swapped endpoints are the same canonical pair.
            k = rng.integers(0, pool, size=rng.integers(1, rng.choice((40, 150))))
            flip = rng.random(k.size) < 0.5
            at = t + np.sort(rng.random(k.size)) * rng.choice((0.0, 1e-4, 6e-4))
            service.submit_many(name, np.where(flip, pool_y[k], pool_x[k]),
                                np.where(flip, pool_x[k], pool_y[k]), at=at)
            t = float(at[-1])
    service.drain()


def registry_bytes(trees):
    """The bytes of every artifact a service over ``trees`` can build."""
    service, _, _ = make_service(trees, traced=False)
    for name in trees:
        service.warm(name)
    return service.registry.bytes_in_use


@settings(max_examples=60, deadline=None)
@given(
    cache=st.sampled_from(("plain", None, 1024, 2048, 1 << 13, 4 << 20)),
    capacity=st.sampled_from((None, None, "one", "short")),
    traced=st.booleans(),
    two=st.booleans(),
    pool=st.sampled_from((3, 30, 300)),
    max_batch=st.sampled_from((4, 16, 40, BIG)),
    claim=st.sampled_from((0, 0, 5)),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(cache=1024, capacity=None, traced=True, two=True, pool=30, max_batch=4,
         claim=0, seed=0)
@example(cache=1024, capacity=None, traced=True, two=True, pool=3, max_batch=4,
         claim=0, seed=0)
@example(cache=None, capacity=None, traced=True, two=True, pool=3, max_batch=4,
         claim=0, seed=0)
@example(cache=1024, capacity=None, traced=True, two=True, pool=300, max_batch=16,
         claim=0, seed=36)
@example(cache=4 << 20, capacity=None, traced=True, two=False, pool=30, max_batch=40,
         claim=5, seed=1)
@example(cache="plain", capacity="short", traced=True, two=True, pool=300,
         max_batch=BIG, claim=0, seed=6)
@example(cache="plain", capacity="short", traced=False, two=True, pool=300,
         max_batch=BIG, claim=0, seed=11)
@example(cache="plain", capacity="one", traced=False, two=False, pool=300,
         max_batch=BIG, claim=0, seed=4)
# Rebuilds inside multi-batch bookings: their index events are recorded before
# the batches' own, so only the canonical tables are equal.
@example(cache=4 << 20, capacity="one", traced=True, two=False, pool=300,
         max_batch=BIG, claim=0, seed=1)
def test_property_cached_spans_equal_one_batch_runs(cache, capacity, traced, two, pool,
                                                    max_batch, claim, seed):
    """Span service changes nothing a caller can see, the spec's blind spots too.

    The one test that keeps the one-batch-run reference (:func:`per_batch`):
    the spec (``tests/spec_serving.py``) does not model the observer's events
    or the registry's LRU order and evictions, so this holds them, with all
    else, against the same code handed one-batch runs — the events as a
    canonical table, and each batch's in lifecycle order.  The plain path,
    ``dedup`` alone, caches of 64 slots (a reset every few batches) to 4 MiB;
    registries of one artifact or one byte short of all of them, so evictions
    and rebuilds fall mid-span and the LRU order picks the victim; batches
    above the CPU/GPU crossover, so spans change lanes; traced or not (booked
    a stretch at a time either way); one or two datasets whose
    deadlines fire inside each other's blocks; pools small enough that a key
    repeats within a batch, across a span's batches and across spans.  Each of
    these mutations was applied by hand and fails here (the pinned examples
    keep it so whatever hypothesis draws):

    * drop the headroom test (``roomy = True``);
    * count a later-batch copy as a miss (drop ``credit_hits``, or take
      ``misses`` from every missing lane);
    * count a same-batch copy as a hit (``missed`` from first copies only);
    * take "first" from an unstable sort (``argsort()`` in
      ``unique_packed_keys``: differs past 16 keys);
    * test headroom per dataset span instead of per run;
    * charge an evicted index's rebuild at a stretch's first batch only
      (``if not hit and m == 0`` in ``_finish_span``).
    """
    names = ["a", "b"] if two else ["a"]
    trees = {name: tree(seed % 5 + k, 300) for k, name in enumerate(names)}
    capacity = {None: None, "one": 1, "short": registry_bytes(trees) - 1}[capacity]
    knobs = {"dedup": cache != "plain", "max_batch_size": max_batch,
             "answer_cache_bytes": None if cache == "plain" else cache,
             "max_wait_s": 2e-4, "capacity_bytes": capacity}

    def run(reference):
        service, launches, observer = make_service(
            trees, reference=reference, traced=traced, **knobs)
        service.set_serve_interceptor(claim_some(claim))
        mixed_stream(service, names, pool=pool, seed=seed)
        assert observer is None or in_lifecycle_order(observer.table())
        return service, launches, observed(service, observer)

    service, launches, seen = run(reference=False)
    reference, per_batch_launches, reference_seen = run(reference=True)
    assert seen == reference_seen
    assert len(launches) <= len(per_batch_launches)
    # On the skew-aware path every launch carries distinct pairs only.
    for _, xs, ys in launches if knobs["dedup"] else ():
        assert np.unique(pack_query_pairs(xs, ys)).size == xs.size
    # Answers: tickets are issued in submission order, so replay the stream
    # on a plain service and compare where this one answered.
    plain, _, _ = make_service(trees, max_batch_size=max_batch)
    mixed_stream(plain, names, pool=pool, seed=seed)
    answered = np.flatnonzero(seen["answered"])
    assert seen["answers"] == plain.results(answered).tolist()


@pytest.mark.parametrize("seed", range(3))
def test_a_hedged_evicting_cluster_traces_like_one_batch_runs(seed):
    """Three replicas round robin, one slowed 200×, a 10 µs hedge delay, a
    400 kB registry (two trees' artifacts need 295 kB): hedges, index loads and
    evictions fall inside multi-batch bookings, which record them before their
    batches' events.  The canonical trace (labels and all) and the cluster's
    stats are those of one-batch runs on every worker."""
    trees = {"a": tree(seed, 2048), "b": tree(seed + 1, 1024)}

    def run(reference):
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=3, router="round-robin",
                                 hedge_delay_s=1e-5, capacity_bytes=400_000,
                                 max_batch_size=16, max_wait_s=2e-4),
            fault_injector=FaultInjector([FaultEvent(
                time_s=0.0, action="slowdown", replica=1, factor=200.0)]))
        for worker in cluster.replicas if reference else ():
            per_batch(worker)
        stretches = [booked_stretches(worker) for worker in cluster.replicas]
        observer = TraceRecorder()
        cluster.attach_observer(observer)
        for name, parents in trees.items():
            cluster.register_tree(name, parents, replicas=3)
        for name, xs, ys, at in poisson_stream(trees, ((1e6, 0.005),), seed=seed):
            cluster.submit_many(name, xs, ys, at=at)
        cluster.drain()
        assert in_lifecycle_order(observer.table())
        counts = [count for log in stretches for _, count, _ in log]
        return observer.table().canonical(), cluster.stats(), counts

    table, stats, counts = run(reference=False)
    expected, expected_stats, _ = run(reference=True)
    assert table.equals(expected)
    assert stats == expected_stats
    assert stats.hedges_won > 0 and stats.cache_evictions > 0 and max(counts) > 1


# ----------------------------------------------------------------------
# What stays per batch: backend choice, registry accounting, LRU order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ["crossover", "evicting"])
def test_dispatch_and_registry_bookkeeping_stay_per_batch(case):
    if case == "crossover":
        # The golden timeline's ramp: wait flushes straddling the 50-query
        # roofline crossover inside one block, then size flushes.
        datasets = {"steady": random_attachment_tree(2048, seed=3)}
        blocks = poisson_stream(datasets, RAMP, seed=5)
        knobs = dict(WIDE_BATCHING)
    else:
        # Two trees, a registry one artifact short of all four: evictions and
        # rebuilds happen mid-run, under spans already answered.
        datasets = {"big": random_attachment_tree(4096, seed=7),
                    "small": random_attachment_tree(512, seed=8)}
        blocks = poisson_stream(datasets, ((400_000.0, 0.015),), seed=9)
        knobs = {"max_batch_size": 64, "max_wait_s": 2e-4,
                 "capacity_bytes": 300_000}

    # The spec does not model evictions: with a capacity, what spans must
    # keep of them is test_property_cached_spans_equal_one_batch_runs's.
    service, launches, _ = make_service(datasets, **knobs)
    spec = spec_service(datasets, **knobs) if case == "crossover" else None
    for target in filter(None, (service, spec)):
        for name, xs, ys, at in blocks:
            target.submit_many(name, xs, ys, at=at)
        target.drain()
    stats = service.stats()
    assert len(stats.backend_choices) == 2
    assert stats.batches_flushed > len(launches)
    if case == "crossover":
        assert stats.batches_flushed > 4 * len(launches)
        assert observables(service) == observables(spec)
    else:
        assert stats.cache_evictions > 0
    expected = np.concatenate([
        oracle(datasets[name], xs, ys) for name, xs, ys, _ in blocks])
    assert np.array_equal(service.results(np.arange(service.tickets_issued)), expected)


# ----------------------------------------------------------------------
# One booking per span: a span's batches are booked together, traced or not
# ----------------------------------------------------------------------
def booked_stretches(service):
    """Log ``(dataset, batches, tickets)`` of every ``_finish_span`` call."""
    stretches, finish = [], service._finish_span

    def logging(span, stop):
        stretches.append((span.dataset, stop - span.booked, np.concatenate(
            [span.cuts[k].tickets for k in range(span.booked, stop)])))
        return finish(span, stop)

    service._finish_span = logging
    return stretches



def alternating_block(rounds=6, wait=1e-4):
    """``(xs, ys, at)`` of one block flushing ``BIG`` (size), ``SMALL`` (wait), ...

    Round ``k``'s ``BIG`` queries arrive together at ``4k * wait`` and fill a
    batch; its ``SMALL`` ones arrive at ``(4k + 2) * wait`` and expire before
    round ``k + 1`` — except the last round's, which wait for the drain.
    """
    xs, ys = queries(rounds * (BIG + SMALL), 50)
    at = np.concatenate([np.r_[np.full(BIG, 4 * k * wait),
                               np.full(SMALL, (4 * k + 2) * wait)]
                         for k in range(rounds)])
    return xs, ys, at


@pytest.mark.parametrize("knobs,traced", [
    pytest.param(knobs, traced, id=name + "-traced" * traced)
    for traced in (False, True) for name, knobs in (
        ("cold", {}), ("warm", {"warm": True}), ("one-artifact", {"capacity_bytes": 1}))])
def test_a_span_across_the_crossover_books_like_one_batch_runs(knobs, traced):
    knobs = dict(knobs)
    warm = knobs.pop("warm", False)
    parents = tree(51)
    xs, ys, at = alternating_block()

    service, _, observer = make_service({"t": parents}, traced=traced,
                                        max_batch_size=BIG, **knobs)
    spec = spec_service({"t": parents}, max_batch_size=BIG)
    stretches = booked_stretches(service)
    for target in (service, spec):
        if warm:
            target.warm("t")
        target.submit_many("t", xs, ys, at=at)
    registry = service.registry
    # The LRU order a fetch per batch leaves: by last use, and the block's
    # last batch is a GPU one (the drain's fetch may reorder them).
    assert [key.variant for key in registry.keys()] == (
        ["parallel"] if knobs else ["sequential", "parallel"])
    service.drain()
    spec.drain()
    fetched = (registry.misses, registry.hits, registry.evictions, len(registry))
    if not knobs:  # the spec's registry never evicts
        # Answers, latency bytes, stats, registry hits and misses: all as
        # booked one batch at a time.  A one-artifact registry across the
        # crossover is held against one-batch runs by the property's
        # ``capacity="one"`` example.
        assert observables(service) == observables(spec)
    assert np.array_equal(service.results(np.arange(xs.size)), oracle(parents, xs, ys))
    # The block's eleven batches are one booking whose lanes alternate, under
    # a recorder too, which still sees each batch's events in order.
    assert [count for _, count, _ in stretches] == [11, 1]
    assert observer is None or in_lifecycle_order(observer.table())
    assert service.stats().backend_choices == {"cpu1": 6, "gpu": 6}
    if knobs:
        # One artifact fits: every batch misses and rebuilds, as it always did.
        assert fetched == (12, 0, 11, 1)
    else:
        # Warm, the eleven are two fetches and nine credited hits; cold, the
        # first batch of each lane builds its artifact.
        assert fetched == ((2, 12, 0, 2) if warm else (2, 10, 0, 2))


def test_a_span_of_non_contiguous_tickets_books_like_one_batch_runs():
    trees = {"a": tree(52), "b": tree(53)}
    xs, ys = queries(100, 54)

    service, _, _ = make_service(trees, traced=False, max_wait_s=1e-3)
    spec = spec_service(trees, max_wait_s=1e-3)
    stretches = booked_stretches(service)
    for target in (service, spec):
        # Rows alternate between the datasets: a's pending tickets are
        # 0, 2, ..., 18 when its block of 80 arrives and cuts five batches.
        for i in range(20):
            target.submit("ab"[i % 2], int(xs[i]), int(ys[i]), at=i * 1e-6)
        target.submit_many("a", xs[20:], ys[20:], at=np.full(80, 2e-5))
        target.drain()
    assert observables(service) == observables(spec)
    dataset, count, tickets = stretches[0]
    assert (dataset, count) == ("a", 5)
    assert np.diff(tickets).max() > 1  # the fancy-index write
    rows = np.r_[np.arange(0, 20, 2), np.arange(20, 100)]
    order = np.r_[rows, np.arange(1, 20, 2)]
    assert np.array_equal(service.results(np.arange(100)), np.r_[
        oracle(trees["a"], xs[rows], ys[rows]),
        oracle(trees["b"], xs[1:20:2], ys[1:20:2])][np.argsort(order)])


def test_failover_readmissions_carry_their_debt_through_a_span():
    parents = tree(55, 256)
    xs, ys = queries(600, 56, 256)
    arrivals = np.arange(600, dtype=np.float64) / 200_000.0

    config = ClusterConfig(n_replicas=2, max_batch_size=16, max_wait_s=5e-4)
    kill = [FaultEvent(time_s=float(arrivals[300]), action="kill", replica=0)]
    cluster = ClusterService(config=config, fault_injector=FaultInjector(kill))
    stretches = [booked_stretches(worker) for worker in cluster.replicas]
    spec = SpecCluster(spec_config(config), kill)
    for target in (cluster, spec):
        target.register_tree("t", parents, on=[0, 1])
        for i in range(0, 600, 100):
            block = slice(i, i + 100)
            target.submit_many("t", xs[block], ys[block], at=arrivals[block])
        target.drain()
    assert observables(cluster) == observables(spec)
    assert np.array_equal(cluster.results(np.arange(600)), oracle(parents, xs, ys))
    assert cluster.stats().queries_retried > 0
    # The survivor booked re-admitted queries, debt and all, in multi-batch
    # stretches.
    debt = cluster._tickets.debt
    assert any(count > 1 and debt[tickets].any() for _, count, tickets in stretches[1])


#: What the default dispatcher books for a ``BIG`` batch (a GPU one).
BIG_CHARGE = LCAQueryService().dispatcher.choose_with_estimate(BIG)[1]


def hedge_rule(flush_s, done_s, size):
    """A duplicate that wins for ``BIG`` batches (halfway) and loses otherwise."""
    return flush_s + (done_s - flush_s) / 2 if size == BIG else done_s + 1e-3


def hard_booking_stream(target):
    """Three blocks, one span each, on a warm ``t``: ``SMALL`` queries flushed by
    their deadline on the CPU lane, then a ``BIG`` batch on the idle GPU lane,
    a ``BIG`` one flushed the very instant that lane comes free, and three more
    queued behind it at once.  The second block runs at a slowdown of 3, the
    third with a hedge hook (:func:`hedge_rule`) and full speed again."""
    wait = POLICY["max_wait_s"]
    xs, ys = queries(3 * (SMALL + 5 * BIG), 62)
    rows = iter(np.split(np.arange(xs.size), 3))
    target.warm("t")
    for t0, factor in ((0.0, 1.0), (0.01, 3.0), (0.02, 1.0)):
        if isinstance(target, SpecService):
            target.factor = factor
        else:
            target.set_service_factor(factor)
        if t0 == 0.02:
            if isinstance(target, SpecService):
                target.hedge = lambda name, batch, flush_s, done_s: hedge_rule(
                    flush_s, done_s, len(batch))
            else:
                target.set_hedge_hook(lambda dataset, batch, done_s: hedge_rule(
                    batch.flush_s, done_s, batch.size))
        start = t0 + 2 * wait
        free = start + BIG_CHARGE * factor  # the GPU lane's, after the first BIG
        at = np.r_[np.full(SMALL, t0), np.full(BIG, start), np.full(BIG, free),
                   np.full(3 * BIG, free + 1e-6)]
        block = next(rows)
        target.submit_many("t", xs[block], ys[block], at=at)
    target.drain()


def lane_bookings(observer):
    """``{lane: [(flush, start, done), ...]}`` in start order, from the trace."""
    table = observer.table()
    flush = {b: t for b, t, k in zip(table.batch, table.time_s, table.kind)
             if k == EV_FLUSH}
    done = {b: t for b, t, k in zip(table.batch, table.time_s, table.kind)
            if k == EV_KERNEL_END}
    lanes = {}
    for b, t, k, aux in zip(table.batch, table.time_s, table.kind, table.aux):
        if k == EV_KERNEL_START:
            lanes.setdefault(table.labels[aux], []).append((flush[b], t, done[b]))
    return {lane: sorted(bookings, key=lambda booking: booking[1])
            for lane, bookings in lanes.items()}


@pytest.mark.parametrize("traced", [False, True], ids=["bulk", "traced"])
def test_bulk_booking_equals_the_spec_on_hard_spans(traced):
    """Bulk booking, on the spans it finds hardest, is the spec's one batch at
    a time: busy periods of four, two lanes in one span, a slowdown, a flush
    exactly at lane-free, a hedge hook (and, traced, an observer).

    Each of these mutations was applied by hand and fails here: the lane
    recurrence as a max-plus prefix (``done = P + maximum.accumulate(flush -
    P + charge)`` per lane, with ``P`` the charges' running sum); ``busy_time_s``
    as ``np.sum`` of a span's charges.
    """
    trees = {"t": tree(61)}
    service, _, observer = make_service(trees, traced=traced, max_batch_size=BIG)
    reference, _, ref_observer = make_service(trees, traced=traced, reference=True,
                                              max_batch_size=BIG)
    spec = spec_service(trees, max_batch_size=BIG)
    stretches = booked_stretches(service)
    for target in (service, reference, spec):
        hard_booking_stream(target)
    # Latencies, busy_time_s, backend choices, flush triggers: bit for bit.
    assert observables(service) == observables(spec) == observables(reference)
    assert service.stats().backend_choices == {"cpu1": 3, "gpu": 15}
    assert service.stats().flush_triggers == {"wait": 3, "size": 15}
    seen, expected = observed(service, observer), observed(reference, ref_observer)
    assert seen["events"] == expected["events"]  # canonical event tables
    # Each block is one booking of six batches across both lanes, traced or not.
    assert [count for _, count, _ in stretches] == [6, 6, 6]
    if not traced:
        return
    gpu = lane_bookings(observer)["gpu"]
    assert len(gpu) == 15
    for block in range(3):
        first, at_free, *queued = gpu[5 * block:5 * block + 5]
        assert at_free[0] == at_free[1] == first[2]  # flushed exactly at lane-free
        # Four batches back to back, the last three queued past their flush.
        chain = [at_free, *queued]
        assert all(b[1] == a[2] > b[0] for a, b in zip(chain, chain[1:]))


def test_busy_time_adds_a_span_s_charges_left_to_right():
    # 1 + 2**-53 rounds back to 1, fifteen times over; a pairwise sum first
    # adds the small charges together and books 1 + 7 * 2**-52 instead.
    charges = [1.0] + [2.0 ** -53] * 15
    collector = StatsCollector()
    collector.record_span([1] * 16, ["size"] * 16, ["cpu"] * 16, charges,
                          np.zeros(16), 0.0, 1.0, 16)
    assert collector.busy_time_s == 1.0
    assert float(np.sum(charges)) == 1.0 + 7 * 2.0 ** -52
    assert collector.batches_flushed == 16 and collector.kernel_queries == 16


def test_credit_hits_counts_hits_and_moves_the_entry_to_the_recent_end():
    service = LCAQueryService()
    service.register_tree("t", tree(57))
    service.warm("t")
    registry = service.registry
    older, newer = registry.keys()
    entry = registry.fetch_by_key(older)[0]
    registry.fetch_by_key(newer)
    registry.credit_hits(entry, 3)
    assert registry.keys() == [newer, older]
    assert (registry.hits, entry.hits, registry.misses) == (5, 4, 2)


# ----------------------------------------------------------------------
# A span's answers outlive the next launch of the same view
# ----------------------------------------------------------------------
def test_smallbatch_answers_survive_the_next_launch():
    parents = tree(30)
    xs, ys = queries(24, 31)
    service, launches, _ = make_service(
        {"t": parents}, backends=("smallbatch", "gpu"), max_batch_size=4)
    expected = oracle(parents, xs, ys)
    first = service.submit_many("t", xs[:12], ys[:12], at=np.zeros(12))
    assert service.stats().batch_size_histogram == {4: 3}
    assert np.array_equal(service.results(first), expected[:12])
    second = service.submit_many("t", xs[12:], ys[12:], at=np.full(12, 1e-5))
    assert np.array_equal(service.results(second), expected[12:])
    assert lanes(launches) == [("t", 12), ("t", 12)]
    assert service.stats().backend_choices == {"smallbatch": 6}
    assert np.array_equal(service.results(np.r_[first, second]), expected)


def test_smallbatch_with_two_interleaved_datasets():
    trees = {"a": tree(32), "b": tree(33)}
    xs, ys = queries(96, 34)
    at = np.arange(96, dtype=np.float64) * 2e-5
    service, launches, _ = make_service(
        trees, backends=("smallbatch", "gpu"), max_batch_size=4)
    tickets = {"a": [], "b": []}
    # Alternating 12-query blocks: each admission expires the other dataset's
    # tail inside its own run of size flushes.  A read after each resolves
    # both datasets' pieces, one launch per tree.
    for i in range(0, 96, 12):
        name = "ab"[(i // 12) % 2]
        tickets[name].append(
            service.submit_many(name, xs[i:i + 12], ys[i:i + 12], at=at[i:i + 12]))
        service.results(tickets[name][-1])
    service.drain()
    assert len(launches) < service.stats().batches_flushed
    assert max(size for _, size in lanes(launches)) <= 16
    for k, name in enumerate("ab"):
        rows = np.concatenate([np.arange(i, i + 12)
                               for i in range(12 * k, 96, 24)])
        assert np.array_equal(service.results(np.concatenate(tickets[name])),
                              oracle(trees[name], xs[rows], ys[rows]))
