"""Runs and spans: the host does a contiguous span of flushed batches' work once.

``LCAQueryService._serve_run`` serves an ordered run of flushed batches.  What
the simulated timeline sees stays per batch; the host work — on the plain path
the kernel call, on the skew-aware path also the pack, the cache probe, the
dedup and the insert — is shared by the batches of one dataset that are
adjacent slices of one scheduler buffer, once the interceptor has taken its
claims out of the run.

Answers, latencies, stats and the cache and registry counters a caller can
observe are held against the executable spec of the serving timeline
(``tests/spec_serving.py``), which knows nothing of spans.  Two observables
the spec does not model — the observer's events in recording order and the
registry's LRU order and evictions — are held by one property,
``test_property_cached_spans_equal_one_batch_runs``, against the same code
handed one-batch runs (:func:`per_batch`).  The tests here pin what spans do
to the host: launches, slices, buffers and bookings.

Each of these mutations was applied by hand and fails the test named beside it:

* an off-by-one in the slice a batch books (``span.answers[at + 1:...]``) —
  ``test_a_block_is_one_launch_of_all_its_lanes``;
* forming spans before the interceptor's claims leave the run (offer each
  batch as it is reached, and skip it) —
  ``test_claimed_batches_skip_their_slice[middle]``;
* merging two buffers into one span (drop the ``.base is not buffer`` test) —
  ``test_batches_in_two_buffers_are_two_spans``;
* on the skew-aware path, the five listed on
  ``test_property_cached_spans_equal_one_batch_runs``;
* booking a span's charges with a pairwise ``np.sum`` —
  ``test_busy_time_adds_a_span_s_charges_left_to_right``;
* fetching an artifact once per lane even after a miss (no per-batch
  fallback) — ``test_a_span_across_the_crossover_books_like_one_batch_runs
  [one-artifact]``; fetching the lanes in order of first use — its ``[warm]``;
* adding ``debt`` to one-batch bookings only —
  ``test_failover_readmissions_carry_their_debt_through_a_span``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA, pack_query_pairs
from repro.obs import TraceRecorder
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    FlushedBatch,
    LCAQueryService,
    ServiceConfig,
    StatsCollector,
)
from repro.service import service as service_module
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
        self.inner, self.n = inner, inner.n
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


def per_batch(service):
    """Make ``service`` serve every batch as its own run: a launch per batch."""
    serve_run = service._serve_run
    service._serve_run = lambda run: [serve_run([item]) for item in run]


def make_service(trees, *, reference=False, traced=True, **knobs):
    """``(service, launches, observer)`` over ``{name: parents}``.

    Untraced (``observer`` None), a span's run-adjacent batches are booked
    together; under an observer, one at a time.  ``reference`` serves one-batch
    runs (:func:`per_batch`).
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
    """All a caller can see of a drained service, events in recording order."""
    tickets = np.arange(service.tickets_issued)
    answered = service._tickets.answered[tickets]  # all, unless an interceptor claimed
    tickets = tickets[answered]
    registry, stats, cache = service.registry, service.stats(), service.answer_cache
    events = []
    if observer is not None:
        table = observer.table()
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
    tickets = service.submit_many("t", xs, ys, at=MIXED_ARRIVALS)
    stats = service.stats()
    assert stats.batches_flushed == 4
    assert stats.flush_triggers == {"size": 3, "wait": 1}
    assert lanes(launches) == [("t", 56)]
    service.drain()
    assert lanes(launches) == [("t", 56), ("t", 4)]
    assert service.stats().kernel_queries == 60
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))


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
    launches = count_launches(service)
    replay(service, scenario, admission_window_s=5e-3)
    stats = service.stats()
    assert stats.queries_answered == service.tickets_issued > 3000
    executed = sum(size for _, size in lanes(launches))
    assert executed == stats.queries_answered == stats.kernel_queries
    # Spans, not batches, are what the host launched.
    assert 3 * len(launches) < stats.batches_flushed


def test_retuning_to_pass_through_serves_the_window_in_one_launch():
    parents = tree(4)
    xs, ys = queries(10, 5)
    service, launches, _ = make_service({"t": parents}, max_batch_size=64,
                                        max_wait_s=1.0)
    tickets = service.submit_many("t", xs, ys, at=np.zeros(10))
    assert service.pending_count("t") == 10
    service.apply_tuning(max_batch_size=1)
    stats = service.stats()
    assert stats.batch_size_histogram == {1: 10}
    assert lanes(launches) == [("t", 10)]
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))


# ----------------------------------------------------------------------
# Interceptor claims
# ----------------------------------------------------------------------
@pytest.mark.parametrize("claimed", [{0}, {2}, {3}, {0, 1}, {0, 1, 2, 3}],
                         ids=["first", "middle", "last", "first-two", "all"])
def test_claimed_batches_skip_their_slice(claimed):
    parents = tree(6)
    xs, ys = queries(60, 7)
    service, launches, _ = make_service({"t": parents})
    offered = []

    def interceptor(dataset, batch):
        offered.append(batch)
        return len(offered) - 1 in claimed

    service.set_serve_interceptor(interceptor)
    tickets = service.submit_many("t", xs, ys, at=MIXED_ARRIVALS)
    assert [batch.size for batch in offered] == MIXED_SIZES

    # Claims leave the run before spans form: a launch is a maximal stretch of
    # unclaimed adjacent batches, and a claimed batch's lanes are never
    # launched; a dead replica (every batch claimed) launches nothing.
    served = [k for k in range(4) if k not in claimed]
    stretches = []
    for k in served:
        if k - 1 in served:
            stretches[-1] += MIXED_SIZES[k]
        else:
            stretches.append(MIXED_SIZES[k])
    assert lanes(launches) == [("t", size) for size in stretches]

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
    cluster.register_tree("t", parents, replicas=2)
    tickets = np.concatenate([
        cluster.submit_many("t", xs[i:i + 100], ys[i:i + 100],
                            at=arrivals[i:i + 100])
        for i in range(0, 600, 100)])
    on_dead_replica = len(logs[0])
    cluster.drain()
    assert len(logs[0]) == on_dead_replica
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
    # The model ran every hedged batch twice; the host answered each query once.
    assert sum(size for log in logs for _, size in lanes(log)) == 256
    assert np.array_equal(cluster.results(tickets), oracle(parents, xs, ys))


# ----------------------------------------------------------------------
# Buffers: adjacency is offsets in one buffer, never across two
# ----------------------------------------------------------------------
def assert_zero_copy_spans(launches):
    """Every launch's operands are plain slices of one scheduler buffer each."""
    for _, xs, ys in launches:
        assert xs.base is not None and xs.base.base is None
        assert ys.base is not None and ys.base.base is None
        assert xs.base.size == ys.base.size >= 64


def test_a_pending_tail_carried_across_a_reallocation_joins_the_next_span():
    parents = tree(12)
    xs, ys = queries(102, 13)
    service, launches, _ = make_service({"t": parents})
    # 60 rows of the 64-row buffer: three size flushes, 12 rows pending.
    first = service.submit_many("t", xs[:60], ys[:60], at=np.zeros(60))
    buffer = service._schedulers["t"]._columns[1]
    # 42 more do not fit: the tail migrates, then flushes with its new rows.
    second = service.submit_many("t", xs[60:], ys[60:], at=np.full(42, 5e-5))
    assert service._schedulers["t"]._columns[1] is not buffer
    assert lanes(launches) == [("t", 48), ("t", 48)]
    assert launches[0][1].base is buffer
    assert launches[1][1].base is service._schedulers["t"]._columns[1]
    service.drain()
    assert_zero_copy_spans(launches)
    assert np.array_equal(service.results(np.r_[first, second]),
                          oracle(parents, xs, ys))


def test_rowwise_submission_across_reallocations_never_spans_two_buffers():
    parents = tree(14)
    xs, ys = queries(300, 15)
    arrivals = np.cumsum(np.random.default_rng(16).choice((0.0, 2e-5, 4e-5), 300))
    service, launches, _ = make_service({"t": parents})
    tickets = [service.submit("t", int(x), int(y), at=float(t))
               for x, y, t in zip(xs, ys, arrivals)]
    service.drain()
    assert len({id(x.base) for _, x, _ in launches}) > 2  # buffers were refilled
    assert_zero_copy_spans(launches)
    assert sum(size for _, size in lanes(launches)) == 300
    assert np.array_equal(service.results(tickets), oracle(parents, xs, ys))


def test_batches_in_two_buffers_are_two_spans():
    # MicroBatchScheduler.submit() flushes expired rows *before* it makes room,
    # so one flush list can hold a batch of the old buffer and one of the new.
    # Build the worst case — the second starts, in its own buffer, at the very
    # row where the first ended in the other — from batches a claiming
    # interceptor parked, then serve them as one run.
    parents = tree(17)
    xs, ys = queries(68, 18)
    at = np.r_[np.zeros(4), np.full(52, 1e-3), np.full(12, 2e-3)]
    service, launches, _ = make_service({"t": parents})
    parked, serve_run = [], service._serve_run
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
    batches = [FlushedBatch.of(cut) for _, cut in parked]
    assert [(b.start, b.size) for b in batches] == [
        (0, 4), (4, 16), (20, 16), (36, 16), (0, 4), (4, 12)]
    old, new = batches[0], batches[-1]
    assert old.xs.base is not new.xs.base and old.start + old.size == new.start

    serve_run([parked[0], parked[-1]])
    assert lanes(launches) == [("t", 4), ("t", 12)]
    assert_zero_copy_spans(launches)
    expected = oracle(parents, xs, ys)
    for batch in (old, new):
        assert np.array_equal(service.results(batch.tickets),
                              expected[batch.tickets - tickets[0]])


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
    order = []
    service.set_serve_interceptor(lambda dataset, batch: order.append(dataset))
    interleaved_stream(service)
    spec = spec_service(trees, max_wait_s=5e-4)
    interleaved_stream(spec)

    # b and c are served between a's batches, in the block and in the sweep,
    # exactly when the spec serves them ...
    assert "".join(order) == "aabacaaaa" + "abc"
    assert observables(service) == observables(spec)
    # ... and a's seven batches are still one launch, at its first.
    assert lanes(launches) == [("a", 112), ("b", 4), ("c", 3),
                               ("a", 8), ("b", 5), ("c", 4)]


def spans_of(run):
    """The adjacency rule restated: ``[(dataset, batches)]`` in opening order."""
    spans, open_span = [], {}
    for dataset, cut in run:
        batch = FlushedBatch.of(cut)
        last = open_span.get(dataset)
        if (last is not None and batch.xs.base is last[-1].xs.base
                and batch.start == last[-1].start + last[-1].size):
            last.append(batch)
        else:
            open_span[dataset] = [batch]
            spans.append((dataset, open_span[dataset]))
    return spans


def count_calls(obj, name):
    """Log the positional arguments of every ``obj.name(...)`` from now on."""
    calls, method = [], getattr(obj, name)

    def counting(*args):
        calls.append(args)
        return method(*args)

    setattr(obj, name, counting)
    return calls


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
def test_property_cached_spans_equal_one_batch_runs(cache, capacity, traced, two, pool,
                                                    max_batch, claim, seed):
    """Span service changes nothing a caller can see, the spec's blind spots too.

    The one test that keeps the one-batch-run reference (:func:`per_batch`):
    the spec (``tests/spec_serving.py``) does not model the observer's events
    or the registry's LRU order and evictions, so this holds them, with all
    else, against the same code handed one-batch runs.  The plain path,
    ``dedup`` alone, caches of 64 slots (a reset every few batches) to 4 MiB;
    registries of one artifact or one byte short of all of them, so evictions
    and rebuilds fall mid-span and the LRU order picks the victim; batches
    above the CPU/GPU crossover, so spans change lanes; traced (booked a batch
    at a time) or not (booked a stretch at a time); one or two datasets whose
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
                 "capacity_bytes": 600_000}

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
# One booking per span: untraced, a span's batches are booked together
# ----------------------------------------------------------------------
def booked_stretches(service):
    """Log ``(dataset, batches, tickets)`` of every ``_finish_span`` call."""
    stretches, finish = [], service._finish_span

    def logging(span, count):
        cuts = span.cuts[span.booked:span.booked + count]
        stretches.append((span.dataset, count, np.concatenate(
            [FlushedBatch.of(cut).tickets for cut in cuts])))
        return finish(span, count)

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


@pytest.mark.parametrize("knobs", [{}, {"warm": True}, {"capacity_bytes": 1}],
                         ids=["cold", "warm", "one-artifact"])
def test_a_span_across_the_crossover_books_like_one_batch_runs(knobs):
    knobs = dict(knobs)
    warm = knobs.pop("warm", False)
    parents = tree(51)
    xs, ys, at = alternating_block()

    service, _, _ = make_service({"t": parents}, traced=False, max_batch_size=BIG,
                                 **knobs)
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
    # The block's eleven batches are one booking whose lanes alternate.
    assert [count for _, count, _ in stretches] == [11, 1]
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
# Scratch views: a span's slices are booked before its kernel runs again
# ----------------------------------------------------------------------
def test_smallbatch_scratch_answers_survive_the_next_launch():
    parents = tree(30)
    xs, ys = queries(24, 31)
    service, launches, _ = make_service(
        {"t": parents}, backends=("smallbatch", "gpu"), max_batch_size=4)
    first = service.submit_many("t", xs[:12], ys[:12], at=np.zeros(12))
    assert service.stats().batch_size_histogram == {4: 3}
    second = service.submit_many("t", xs[12:], ys[12:], at=np.full(12, 1e-5))
    assert lanes(launches) == [("t", 12), ("t", 12)]
    assert service.stats().backend_choices == {"smallbatch": 6}
    expected = oracle(parents, xs, ys)
    # Both spans went through the same 16-lane scratch: it now holds the
    # second's answers, the tables hold both.
    kernel = service.registry.fetch_by_key(
        service._artifact_key("t", service.dispatcher.backends[0]))[0].artifact
    assert np.array_equal(kernel.inner._out[:12], expected[12:])
    assert np.array_equal(service.results(np.r_[first, second]), expected)


def test_smallbatch_scratch_with_two_interleaved_datasets():
    trees = {"a": tree(32), "b": tree(33)}
    xs, ys = queries(96, 34)
    at = np.arange(96, dtype=np.float64) * 2e-5
    service, launches, _ = make_service(
        trees, backends=("smallbatch", "gpu"), max_batch_size=4)
    tickets = {"a": [], "b": []}
    # Alternating 12-query blocks: each admission expires the other dataset's
    # tail inside its own run of size flushes.
    for i in range(0, 96, 12):
        name = "ab"[(i // 12) % 2]
        tickets[name].append(
            service.submit_many(name, xs[i:i + 12], ys[i:i + 12], at=at[i:i + 12]))
    service.drain()
    assert len(launches) < service.stats().batches_flushed
    assert max(size for _, size in lanes(launches)) <= 16
    for k, name in enumerate("ab"):
        rows = np.concatenate([np.arange(i, i + 12)
                               for i in range(12 * k, 96, 24)])
        assert np.array_equal(service.results(np.concatenate(tickets[name])),
                              oracle(trees[name], xs[rows], ys[rows]))
