"""Cluster service tests: replication, routing, backpressure, aggregation.

What a cluster serves — including that one replica serves what a plain
``LCAQueryService`` does — is ``tests/test_serving_spec.py``'s to check.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.boundary import query_block
from repro.errors import InvalidQueryError, Overloaded, ReproError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.obs import TraceRecorder
from repro.obs.events import EV_DISPATCH, EV_KERNEL_START
from repro.service import (
    ClusterConfig,
    ClusterService,
    ClusterStats,
    LCAQueryService,
    ServiceConfig,
    ServiceStats,
    rendezvous,
)
from repro.service.tickets import TicketTable
from repro.workloads import make_scenario, replay

from .conftest import offender_sweep
from .spec_serving import admit

POLICY = {"max_batch_size": 64, "max_wait_s": 1e-4}


def build_cluster(parents, n_replicas, *, replicas=None, observer=None, **knobs):
    cluster = ClusterService(config=ClusterConfig(n_replicas=n_replicas, **knobs))
    cluster.attach_observer(observer)
    cluster.register_tree(
        "t", parents, replicas=n_replicas if replicas is None else replicas
    )
    return cluster


def chunked_submit(cluster, dataset, xs, ys, arrivals, chunk):
    tickets = [
        cluster.submit_many(
            dataset, xs[i:i + chunk], ys[i:i + chunk], at=arrivals[i:i + chunk]
        )
        for i in range(0, xs.size, chunk)
    ]
    return np.concatenate(tickets)


# ----------------------------------------------------------------------
# Construction and registration surface
# ----------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ServiceError):
        ClusterConfig(n_replicas=0)
    with pytest.raises(ServiceError):
        ClusterConfig(n_replicas=2, max_pending=0)


def test_register_tree_validation():
    parents = random_attachment_tree(64, seed=0)
    cluster = ClusterService(config=ClusterConfig(n_replicas=3))
    cluster.register_tree("t", parents)
    with pytest.raises(ServiceError):
        cluster.register_tree("t", parents)  # duplicate
    with pytest.raises(ServiceError):
        cluster.register_tree("u", parents, replicas=4)  # > n_replicas
    with pytest.raises(ServiceError):
        cluster.register_tree("u", parents, replicas=-1)
    # replicas=0 is not an error: it tracks the full active replica set.
    cluster.register_tree("all", parents, replicas=0)
    assert len(cluster.placement("all")) == 3
    with pytest.raises(ServiceError):
        cluster.register_tree("u", parents, on=[0, 3])  # id out of range
    with pytest.raises(ServiceError):
        cluster.register_tree("u", parents, on=[])
    with pytest.raises(ServiceError):
        cluster.register_tree("u")  # neither parents nor loader
    with pytest.raises(ServiceError):
        cluster.submit("nope", 1, 2)


def test_placement_modes():
    parents = random_attachment_tree(64, seed=1)
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=4, router="round-robin", **POLICY)
    )
    hashed = cluster.register_tree("hashed", parents, replicas=2)
    assert cluster.placement("hashed") == hashed
    assert len(set(hashed)) == 2
    # Hash placement is the name's rendezvous ranking of the active replicas.
    assert hashed == rendezvous("hashed", range(4), 2)
    # Explicit placement is respected verbatim (deduplicated, order kept).
    pinned = cluster.register_tree("pinned", parents, on=[3, 1, 3])
    assert pinned == (3, 1)
    assert cluster.datasets == ["hashed", "pinned"]
    # Every worker shares the one store; only the placed replicas build the
    # dataset's index and receive its traffic.
    assert all(worker.store is cluster.store for worker in cluster.replicas)
    xs, ys = generate_random_queries(64, 40, seed=2)
    tickets = cluster.submit_many("pinned", xs, ys, at=np.arange(40) * 1e-6)
    cluster.drain()
    assert np.array_equal(
        cluster.results(tickets), BinaryLiftingLCA(parents).query(xs, ys)
    )
    for replica_id, worker in enumerate(cluster.replicas):
        placed = replica_id in (1, 3)
        built = {key.dataset for key in worker.registry.keys()}
        assert built == ({"pinned"} if placed else set())
        assert (worker.stats().queries_answered > 0) == placed


def test_a_refused_registration_changes_neither_store_nor_placement():
    from repro.errors import NotATreeError

    cluster = ClusterService(config=ClusterConfig(n_replicas=3))
    with pytest.raises(ServiceError):
        cluster.register_tree("t", [-1, 0], on=[5])  # placement refused
    with pytest.raises(NotATreeError):
        cluster.register_tree("t", [-1, 0.5])  # tree refused
    assert cluster.datasets == [] and not cluster.store.has_tree("t")
    with pytest.raises(ServiceError, match="unknown dataset"):
        cluster.placement("t")
    assert cluster.register_tree("t", [-1, 0], on=[2]) == (2,)


def test_lazy_loader_is_shared_and_called_once():
    calls = []

    def loader():
        calls.append(1)
        return random_attachment_tree(128, seed=2)

    cluster = ClusterService(config=ClusterConfig(n_replicas=3, **POLICY))
    cluster.register_tree("lazy", loader=loader, replicas=3)
    assert calls == []  # nothing materialized yet
    xs, ys = generate_random_queries(128, 30, seed=3)
    arrivals = np.arange(30, dtype=np.float64) * 1e-6
    tickets = cluster.submit_many("lazy", xs, ys, at=arrivals)
    cluster.drain()
    # All three copies served from one materialization of the loader.
    assert len(calls) == 1
    expected = BinaryLiftingLCA(random_attachment_tree(128, seed=2)).query(xs, ys)
    assert np.array_equal(cluster.results(tickets), expected)


def test_a_lazy_loader_that_raises_once_stays_retryable_on_every_copy():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("transient")
        return random_attachment_tree(128, seed=2)

    cluster = ClusterService(
        config=ClusterConfig(n_replicas=3, router="round-robin", **POLICY)
    )
    cluster.register_tree("lazy", loader=flaky, replicas=3)
    xs, ys = generate_random_queries(128, 30, seed=3)
    with pytest.raises(OSError):
        cluster.submit_many("lazy", xs, ys)  # the size check loads, and fails
    assert cluster.tickets_issued == 0
    # The retry may come through any copy; it loads once for all three.
    cluster.replicas[2].warm("lazy")
    assert len(attempts) == 2
    cluster.warm("lazy")
    tickets = cluster.submit_many("lazy", xs, ys, at=np.arange(30) * 1e-6)
    cluster.drain()
    assert len(attempts) == 2
    assert all(worker.stats().queries_answered for worker in cluster.replicas)
    expected = BinaryLiftingLCA(random_attachment_tree(128, seed=2)).query(xs, ys)
    assert np.array_equal(cluster.results(tickets), expected)


def test_a_re_placed_copy_ranks_datasets_in_registration_order():
    """A worker that gains an earlier-registered hashed dataset after it served
    a later one ranks the earlier one first: one drain serves them in
    registration order, whatever order their queries arrived in."""
    parents = random_attachment_tree(64, seed=3)
    cluster = ClusterService(config=ClusterConfig(n_replicas=2, **slow_policy()))
    (home,) = cluster.register_tree("early", parents, replicas=1)
    other = 1 - home
    cluster.register_tree("late", parents, on=[other])
    cluster.submit("late", 1, 2, at=0.0)  # `other` serves "late" first
    cluster.drain()
    cluster.retire_replica(home)  # "early" is re-placed onto `other`
    assert cluster.placement("early") == (other,)
    cluster.warm("early")
    late = cluster.submit("late", 3, 4, at=1e-3)
    early = cluster.submit("early", 5, 6, at=1e-3)
    cluster.drain()
    # Same instant, same lane: the batch served first completes first.
    assert cluster.latency(early) < cluster.latency(late)


# ----------------------------------------------------------------------
# Correctness across replicas and policies
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "policy_name", ["round-robin", "least-outstanding", "consistent-hash"]
)
def test_cluster_answers_match_oracle(policy_name):
    n, q = 4_096, 3_000
    parents = random_attachment_tree(n, seed=4)
    xs, ys = generate_random_queries(n, q, seed=5)
    arrivals = np.arange(q, dtype=np.float64) * 5e-7
    cluster = build_cluster(parents, 4, **POLICY, router=policy_name)
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 512)
    cluster.drain()
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    assert np.array_equal(cluster.results(tickets), expected)
    stats = cluster.stats()
    assert stats.queries_answered == q
    assert stats.queries_shed == 0
    assert stats.router_policy == policy_name


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------

def slow_policy():
    # A queue that never flushes on its own: everything stays pending until
    # time passes or the caller drains, so admission decisions are exact.
    return {"max_batch_size": 1 << 15, "max_wait_s": 10.0}


def test_per_query_backpressure_sheds_and_recovers():
    parents = random_attachment_tree(256, seed=8)
    cluster = build_cluster(parents, 2, **slow_policy(), max_pending=3)
    for i in range(3):
        cluster.submit("t", 1, 2, at=i * 1e-6)
    with pytest.raises(Overloaded) as excinfo:
        cluster.submit("t", 3, 4, at=3e-6)
    exc = excinfo.value
    assert isinstance(exc, ServiceError)  # typed subclass
    assert (exc.pending, exc.capacity, exc.admitted, exc.shed) == (3, 3, 0, 1)
    stats = cluster.stats()
    assert stats.queries_shed == 1
    assert stats.queries_submitted == 3
    assert stats.queries_offered == 4
    assert stats.shed_rate == pytest.approx(0.25)
    # Draining frees the queue; admission recovers.
    cluster.advance_to(100.0)
    assert cluster.pending_count() == 0
    cluster.submit("t", 5, 6, at=101.0)
    assert cluster.stats().queries_shed == 1  # no new sheds


def test_block_backpressure_admits_prefix_and_reports_shed():
    parents = random_attachment_tree(256, seed=9)
    cluster = build_cluster(parents, 2, **slow_policy(), max_pending=100)
    xs, ys = generate_random_queries(256, 300, seed=10)
    arrivals = np.arange(300, dtype=np.float64) * 1e-6
    with pytest.raises(Overloaded) as excinfo:
        cluster.submit_many("t", xs, ys, at=arrivals)
    exc = excinfo.value
    assert (exc.admitted, exc.shed) == (100, 200)
    assert cluster.pending_count() == 100
    stats = cluster.stats()
    assert stats.queries_submitted == 100
    assert stats.queries_shed == 200
    assert stats.shed_rate == pytest.approx(200 / 300)
    # The admitted prefix is exactly the first 100 queries.
    cluster.drain()
    answers = cluster.results(np.arange(100))
    expected = BinaryLiftingLCA(parents).query(xs[:100], ys[:100])
    assert np.array_equal(answers, expected)


def test_invalid_query_rejected_with_prefix_admitted():
    parents = random_attachment_tree(100, seed=13)
    cluster = build_cluster(parents, 2, **POLICY)
    xs = np.array([1, 2, 500, 3])
    ys = np.array([4, 5, 6, 7])
    with pytest.raises(InvalidQueryError):
        cluster.submit_many("t", xs, ys, at=np.arange(4) * 1e-6)
    # The clean prefix (2 queries) was admitted, exactly like the plain
    # service's per-query loop would have.
    assert cluster.stats().queries_submitted == 2
    with pytest.raises(InvalidQueryError):
        cluster.submit("t", -1, 2)
    with pytest.raises(ServiceError):
        cluster.submit("t", 1, 2, at=-1.0)  # backwards arrival
    # Every offender kind first, in the middle and last, and two kinds in
    # both orders: the cluster's front door admits the prefix the locating
    # passes alone find and raises exactly what they raise.
    oracle = BinaryLiftingLCA(parents)
    for spoilers, (xs, ys, at) in offender_sweep():
        fresh = build_cluster(parents, 2, **POLICY)
        block = query_block(xs, ys, at, now=0.0)
        stop, expected = admit(*block, n=100, dataset="t", now=0.0)
        with pytest.raises(ReproError) as raised:
            fresh.submit_many("t", xs, ys, at=at)
        assert type(raised.value) is type(expected), spoilers
        assert str(raised.value) == str(expected), spoilers
        assert fresh.tickets_issued == fresh.stats().queries_submitted == stop
        fresh.drain()
        assert np.array_equal(
            fresh.results(np.arange(stop)),
            oracle.query(block[0][:stop], block[1][:stop]),
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_arrival_is_a_typed_error_not_a_hang(hang_guard, bad):
    parents = random_attachment_tree(64, seed=14)
    cluster = build_cluster(parents, 2, **POLICY)
    with pytest.raises(ServiceError, match="finite"):
        cluster.submit_many("t", [1, 2, 3], [4, 5, 6], at=[0.0, bad, 1e-3])
    assert cluster.tickets_issued == 1  # the clean prefix was admitted
    with pytest.raises(ServiceError, match="finite"):
        cluster.submit("t", 1, 2, at=bad)
    assert cluster.clock.now == 0.0
    cluster.drain()
    assert cluster.results([0]).size == 1


def test_ticket_surface_mirrors_single_node_service():
    parents = random_attachment_tree(100, seed=14)
    cluster = build_cluster(parents, 2, **POLICY)
    with pytest.raises(ServiceError):
        cluster.result(0)  # never issued
    ticket = cluster.submit("t", 1, 2, at=0.0)
    with pytest.raises(ServiceError):
        cluster.result(ticket)  # still queued
    with pytest.raises(ServiceError):
        cluster.results([ticket])
    cluster.drain()
    assert cluster.result(ticket) >= 0
    assert cluster.latency(ticket) > 0
    with pytest.raises(ServiceError):
        cluster.results([ticket, 999])
    assert cluster.results([]).size == 0
    assert cluster.latencies([]).size == 0


def test_still_queued_error_names_the_cluster_ticket():
    parents = random_attachment_tree(100, seed=15)
    cluster = build_cluster(parents, 2, **slow_policy(), router="round-robin")
    tickets = [cluster.submit("t", 1, 2, at=i * 1e-6) for i in range(4)]
    cluster.advance_to(1e-3)
    with pytest.raises(ServiceError, match=f"ticket {tickets[0]} is still queued"):
        cluster.results(tickets)


def test_read_back_reads_the_table_once_and_keeps_the_error_order(monkeypatch):
    n = 200
    parents = random_attachment_tree(n, seed=18)
    xs, ys = generate_random_queries(n, 64, seed=19)
    cluster = build_cluster(parents, 4, **slow_policy(), router="round-robin")
    tickets = cluster.submit_many("t", xs, ys, at=np.arange(64) * 1e-6)
    # Unknown wins over queued wherever it sits; among queued, the first named.
    with pytest.raises(ServiceError, match="unknown ticket 999"):
        cluster.results([tickets[5], 999, tickets[0]])
    with pytest.raises(ServiceError, match=f"ticket {tickets[5]} is still queued"):
        cluster.latencies([tickets[5], tickets[0]])
    cluster.drain()

    groupings, reads = [], []
    grouped, read = ClusterService._grouped, TicketTable.read
    monkeypatch.setattr(
        ClusterService,
        "_grouped",
        staticmethod(lambda owners: groupings.append(owners.size) or grouped(owners)),
    )
    monkeypatch.setattr(
        TicketTable,
        "read",
        lambda table, *args, **kw: reads.append(table) or read(table, *args, **kw),
    )
    shuffled = np.random.default_rng(20).permutation(tickets)
    answers = cluster.results(shuffled)
    delays = cluster.latencies(shuffled)
    # One read of the cluster's one table per call, grouped by nothing.
    assert groupings == [] and reads == [cluster._tickets] * 2
    assert np.array_equal(answers, BinaryLiftingLCA(parents).query(xs, ys)[shuffled])
    assert np.array_equal(delays, [cluster.latency(t) for t in shuffled])


def test_every_worker_answers_into_the_clusters_one_ticket_table():
    cluster = ClusterService(config=ClusterConfig(n_replicas=2))
    cluster.register_tree("t", random_attachment_tree(64, seed=21), replicas=0)
    cluster.add_replica()
    assert cluster.scale_to(4) == (3,)
    assert len(cluster.replicas) == 4
    assert all(worker._tickets is cluster._tickets for worker in cluster.replicas)


def test_pending_count_follows_queries_a_re_placement_left_behind():
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=2, max_batch_size=8, max_wait_s=1.0)
    )
    assert cluster.register_tree("d0", np.array([-1, 0, 0, 1]), replicas=1) == (1,)
    cluster.submit_many("d0", [1, 2, 3], [2, 3, 1], at=[0.0, 1e-6, 2e-6])
    cluster.add_replica()
    assert cluster.placement("d0") == (2,)  # the three still queue on replica 1
    assert cluster.pending_count("d0") == cluster.pending_count() == 3
    cluster.drain()
    assert cluster.pending_count("d0") == 0


# ----------------------------------------------------------------------
# Stats aggregation
# ----------------------------------------------------------------------

def test_cluster_stats_aggregate_per_replica_views():
    n, q = 2_048, 2_000
    parents = random_attachment_tree(n, seed=16)
    xs, ys = generate_random_queries(n, q, seed=17)
    arrivals = np.arange(q, dtype=np.float64) * 1e-6
    cluster = build_cluster(parents, 4, **POLICY, router="round-robin")
    tickets = chunked_submit(cluster, "t", xs, ys, arrivals, 256)
    cluster.drain()
    stats = cluster.stats()
    assert isinstance(stats, ClusterStats)
    per = stats.replicas
    assert len(per) == 4
    # Totals are the sums of the per-replica snapshots.
    assert stats.queries_answered == sum(s.queries_answered for s in per) == q
    assert stats.batches_flushed == sum(s.batches_flushed for s in per)
    assert stats.busy_time_s == pytest.approx(sum(s.busy_time_s for s in per))
    assert stats.cache_hits == sum(s.cache_hits for s in per)
    assert stats.cache_misses == sum(s.cache_misses for s in per)
    # ... as are the fields a cluster snapshot carries because it is a
    # ServiceStats merged over the workers.
    assert stats.kernel_queries == sum(s.kernel_queries for s in per) == q
    assert stats.cache_evictions == sum(s.cache_evictions for s in per)
    assert stats.answer_cache_resets == sum(s.answer_cache_resets for s in per)
    for name in ("batch_size_histogram", "flush_triggers", "backend_choices"):
        totals = sum((Counter(getattr(s, name)) for s in per), Counter())
        assert getattr(stats, name) == dict(totals), name
    # Imbalance is max/mean of the per-replica answered counts.
    answered = np.array(stats.per_replica_answered, dtype=np.float64)
    assert stats.load_imbalance == pytest.approx(answered.max() / answered.mean())
    # Merged percentiles are exact: recompute from every query's latency.
    merged = np.sort(cluster.latencies(tickets))
    assert stats.latency_p50_s == pytest.approx(np.percentile(merged, 50.0))
    assert stats.latency_p99_s == pytest.approx(np.percentile(merged, 99.0))
    assert stats.latency_max_s == pytest.approx(merged.max())
    # Span covers earliest arrival to latest completion anywhere.
    firsts = [s for s in per if s.queries_answered]
    assert stats.span_s >= max(s.span_s for s in firsts)
    assert stats.throughput_qps == pytest.approx(q / stats.span_s)
    rendered = stats.format()
    assert "per-replica load" in rendered and "shed" in rendered


def test_cluster_stats_declares_only_the_cluster_fields():
    # Every field a single node reports is inherited from ServiceStats and
    # filled by its merge; the subclass re-declares none of them.
    assert issubclass(ClusterStats, ServiceStats)
    own = set(ClusterStats.__annotations__)
    assert own and not own & set(ServiceStats.__dataclass_fields__)
    assert {"n_replicas", "replicas", "replica_seconds"} <= own


def test_replica_seconds_accrue_from_birth_to_retirement():
    cluster = ClusterService(config=ClusterConfig(n_replicas=2))
    cluster.advance_to(1.0)
    newcomer = cluster.add_replica()
    cluster.advance_to(2.0)
    cluster.retire_replica(newcomer)
    cluster.advance_to(3.0)
    # Two founders for 3 s, the newcomer from t=1 until its retirement at 2.
    assert cluster.replica_seconds() == 7.0
    assert cluster.stats().replica_seconds == 7.0
    # The horizon is the cluster clock; there is no argument to override it.
    with pytest.raises(TypeError):
        cluster.replica_seconds(1.0)


def test_warm_prebuilds_every_copy_and_stream_only_hits():
    parents = random_attachment_tree(1_024, seed=18)
    cluster = build_cluster(parents, 3, **POLICY)
    cluster.warm("t")
    misses_after_warm = cluster.stats().cache_misses
    assert misses_after_warm == 6  # 3 copies x 2 backends
    xs, ys = generate_random_queries(1_024, 600, seed=19)
    chunked_submit(cluster, "t", xs, ys, np.arange(600) * 1e-6, 128)
    cluster.drain()
    assert cluster.stats().cache_misses == misses_after_warm  # all hits


WARM_PARENTS = random_attachment_tree(4_096, seed=5)


def warmed_service(knobs):
    service = LCAQueryService(config=ServiceConfig(**knobs))
    service.attach_observer(TraceRecorder())
    service.register_tree("t", WARM_PARENTS)
    service.warm("t")
    return service


def warmed_cluster(knobs, *, scale_out=False):
    cluster = ClusterService(config=ClusterConfig(n_replicas=2, **knobs))
    cluster.attach_observer(TraceRecorder())
    cluster.register_tree("t", WARM_PARENTS, replicas=0)
    cluster.warm("t")
    if scale_out:
        cluster.scale_to(3)
    return cluster


def replayed_warm_service(knobs):
    service = LCAQueryService(config=ServiceConfig(**knobs))
    replay(
        service,
        make_scenario("steady", scale=0.05),
        warm=True,
        observer=TraceRecorder(),
    )
    return service


WARM_TARGETS = {
    "service": warmed_service,
    "cluster": warmed_cluster,
    "scaled-out": lambda knobs: warmed_cluster(knobs, scale_out=True),
    "replay": replayed_warm_service,
}


@pytest.mark.parametrize("backends", [None, ("smallbatch", "gpu")])
@pytest.mark.parametrize("kind", WARM_TARGETS)
def test_warm_up_warms_what_is_served(kind, backends):
    """After a warm-up no served batch builds an index or pays for one."""
    target = WARM_TARGETS[kind]({"backends": backends, **POLICY})
    workers = target.workers
    warm_builds = sum(
        len(w.datasets) * len(w.dispatcher.backends) for w in workers
    )
    assert sum(w.registry.misses for w in workers) == warm_builds
    if kind != "replay":
        xs, ys = generate_random_queries(WARM_PARENTS.size, 600, seed=19)
        target.submit_many("t", xs, ys, at=np.arange(600) * 1e-6)
        target.drain()
        assert all(w.stats().queries_answered for w in workers)
    assert sum(w.registry.misses for w in workers) == warm_builds
    table = target.observer.table()
    dispatch = table.of_kind(EV_DISPATCH)
    kernel = table.of_kind(EV_KERNEL_START)
    assert kernel.n_events > 0
    predicted = dict(zip(dispatch.batch.tolist(), dispatch.detail.tolist()))
    for batch, booked in zip(kernel.batch.tolist(), kernel.detail.tolist()):
        assert booked == predicted[batch]  # the estimate, and no build time


def test_every_replica_shares_one_set_of_smallbatch_table_lists():
    """The scalar kernel's Python lists are built once per host index, not
    once per replica: each worker's kernel keeps only its own scratch."""
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=3, backends=("smallbatch", "gpu"), **POLICY)
    )
    cluster.register_tree("t", WARM_PARENTS, replicas=3)
    cluster.warm("t")
    kernels = []
    for worker in cluster.replicas:
        (backend,) = (b for b in worker.dispatcher.backends if b.key == "smallbatch")
        key = worker._artifact_key("t", backend)
        kernels.append(worker.registry.fetch_by_key(key)[0].artifact)
    assert len({id(kernel._out) for kernel in kernels}) == 3
    for name in ("_node_word", "_node_key", "_head_key"):
        assert len({id(getattr(kernel, name)) for kernel in kernels}) == 1, name


def test_the_smallbatch_lists_die_with_the_last_kernel_not_with_the_index():
    """Evicting the ``smallbatch`` kernel frees its lists even while another
    cached view of the same tree keeps the host index alive."""
    service = LCAQueryService(config=ServiceConfig(backends=("smallbatch", "gpu"), **POLICY))
    service.register_tree("t", WARM_PARENTS)
    service.warm("t")
    keys = {b.key: service._artifact_key("t", b) for b in service.dispatcher.backends}
    lists = weakref.ref(service.registry.fetch_by_key(keys["smallbatch"])[0].artifact._tables)
    service.registry.evict(keys["smallbatch"])
    gc.collect()
    assert keys["gpu"] in service.registry and lists() is None
    service.warm("t")  # a rebuilt kernel pins a fresh set
    kernel = service.registry.fetch_by_key(keys["smallbatch"])[0].artifact
    assert len(kernel._node_word) == WARM_PARENTS.size


def test_a_node_answers_the_cluster_views_as_its_own_one_worker():
    service = LCAQueryService()
    assert (service.workers, service.n_active, service.queries_shed) == ((service,), 1, 0)
    cluster = ClusterService(config=ClusterConfig(n_replicas=2))
    assert cluster.workers is cluster.replicas and cluster.n_active == 2


def test_pending_count_per_dataset_sums_over_copies():
    parents = random_attachment_tree(256, seed=20)
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=3, router="round-robin", **slow_policy())
    )
    cluster.register_tree("a", parents, replicas=2)
    cluster.register_tree("b", parents, replicas=1)
    for i in range(5):
        cluster.submit("a", 1, 2, at=i * 1e-6)
    cluster.submit("b", 3, 4, at=1e-5)
    assert cluster.pending_count("a") == 5
    assert cluster.pending_count("b") == 1
    assert cluster.pending_count() == 6
