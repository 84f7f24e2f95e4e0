"""Skew-aware serving: dedup kernel, answer cache, and exactness properties.

The load-bearing invariant of the whole skew-aware fast path is *exactness*:
with canonicalization, intra-batch dedup and the answer cache all enabled,
every answer is bit-identical to the plain path's.  The tests here enforce
that three ways — hypothesis properties over random trees and duplicate-heavy
streams, full named-scenario replays checked against the binary-lifting
oracle, and adversarial hash-collision / eviction cases constructed directly
against :class:`repro.service.cache.AnswerCache`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.lca import (
    BinaryLiftingLCA,
    InlabelLCA,
    dedup_query_pairs,
    pack_query_pairs,
    run_batched_queries,
    unpack_query_pairs,
)
from repro.device import GTX980
from repro.service import (
    AnswerCache,
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    ServiceConfig,
)
from repro.service.cache import BYTES_PER_SLOT, MIN_CACHE_BYTES
from repro.workloads import SCENARIOS, make_scenario, replay


# ----------------------------------------------------------------------
# Canonicalization / dedup kernel
# ----------------------------------------------------------------------
@given(st.integers(0, 2**31), st.integers(0, 2**31))
def test_pack_unpack_roundtrip(x, y):
    keys = pack_query_pairs(np.array([x]), np.array([y]))
    ux, uy = unpack_query_pairs(keys)
    assert int(ux[0]) == min(x, y)
    assert int(uy[0]) == max(x, y)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_dedup_scatter_reconstructs_canonical_pairs(data):
    size = data.draw(st.integers(1, 300))
    hi = data.draw(st.integers(1, 50))  # small range forces duplicates
    xs = data.draw(st.lists(st.integers(0, hi), min_size=size, max_size=size))
    ys = data.draw(st.lists(st.integers(0, hi), min_size=size, max_size=size))
    xs, ys = np.array(xs), np.array(ys)
    ux, uy, inverse = dedup_query_pairs(xs, ys)
    assert (ux <= uy).all()
    # Unique and sorted by packed key.
    packed = pack_query_pairs(ux, uy)
    if packed.size > 1:
        assert (np.diff(packed.view(np.uint64)) > 0).all()
    assert np.array_equal(ux[inverse], np.minimum(xs, ys))
    assert np.array_equal(uy[inverse], np.maximum(xs, ys))


def test_run_batched_queries_dedup_is_exact_and_cheaper():
    parents = random_attachment_tree(512, seed=3)
    rng = np.random.default_rng(0)
    # Heavy duplication: 30 distinct nodes, 131072 queries.  Batches are
    # large enough that the GPU kernel is bandwidth-bound (not launch-bound),
    # so running it on the unique pairs must show up in the modeled time.
    q = 131_072
    xs = rng.integers(0, 30, q)
    ys = rng.integers(0, 30, q)
    alg = InlabelLCA(parents)
    plain = run_batched_queries(alg, xs, ys, 65_536, GTX980)
    deduped = run_batched_queries(alg, xs, ys, 65_536, GTX980, dedup=True)
    assert np.array_equal(plain.answers, deduped.answers)
    assert deduped.kernel_queries < plain.kernel_queries == q
    assert deduped.modeled_time_s < plain.modeled_time_s


# ----------------------------------------------------------------------
# AnswerCache unit behaviour
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_space_isolation():
    cache = AnswerCache(1 << 16, seed=5)
    rng = np.random.default_rng(0)
    keys = np.unique(rng.integers(0, 1 << 48, 1000).astype(np.uint64))
    values = rng.integers(0, 1 << 31, keys.size)
    cache.insert(3, keys, values)
    got, found, hits = cache.lookup(3, keys)
    assert found.all() and hits == keys.size
    assert np.array_equal(got, values)
    # Same keys in a different dataset space must all miss (exactness).
    assert not cache.lookup(4, keys)[1].any()
    # Unknown keys miss; known subset of a mixed probe hits exactly.
    probe = rng.integers(0, 1 << 48, 2000).astype(np.uint64)
    _, found, _ = cache.lookup(3, probe)
    assert np.array_equal(found, np.isin(probe, keys))


def test_cache_respects_byte_budget_and_min_size():
    cache = AnswerCache(10_000)
    assert cache.nbytes <= 10_000
    assert cache.slots * BYTES_PER_SLOT == cache.nbytes
    with pytest.raises(ServiceError):
        AnswerCache(MIN_CACHE_BYTES - 1)


def test_cache_adversarial_collisions_probe_correctly():
    # A tiny table forces long collision chains; craft keys that share one
    # home slot under the seeded salt by brute-force search.
    cache = AnswerCache(MIN_CACHE_BYTES, seed=1)  # 64 slots
    colliders = []
    key = 0
    while len(colliders) < 8:
        key += 1
        arr = np.array([key], dtype=np.uint64)
        if int(cache._home_slots(0, arr)[0]) == 0:
            colliders.append(key)
    keys = np.array(colliders, dtype=np.uint64)
    values = np.arange(100, 100 + keys.size)
    cache.insert(0, keys, values)
    got, found, _ = cache.lookup(0, keys)
    assert found.all()
    assert np.array_equal(got, values)
    # A missing key whose home slot also collides must probe to a miss,
    # never a false hit.
    while True:
        key += 1
        arr = np.array([key], dtype=np.uint64)
        if int(cache._home_slots(0, arr)[0]) == 0:
            break
    assert not cache.lookup(0, arr)[1][0]


def test_cache_eviction_resets_epoch_and_forgets():
    cache = AnswerCache(MIN_CACHE_BYTES)  # 64 slots, ~44-entry load bound
    first = np.arange(1, 11, dtype=np.uint64)
    cache.insert(0, first, np.arange(10))
    assert cache.lookup(0, first)[1].all()
    for block in range(1, 30):
        keys = np.arange(block * 100, block * 100 + 10, dtype=np.uint64)
        cache.insert(0, keys, np.arange(10))
    assert cache.resets > 0
    # The early entries were logically cleared by the epoch bump.
    assert not cache.lookup(0, first)[1].any()
    assert cache.used <= int(cache.slots * 0.7)


def test_cache_insert_race_within_batch_keeps_all_entries():
    # Distinct keys that collide on the same home slot within one insert
    # batch: losers must keep probing, not vanish.
    cache = AnswerCache(MIN_CACHE_BYTES, seed=2)
    colliders = []
    key = 0
    while len(colliders) < 5:
        key += 1
        arr = np.array([key], dtype=np.uint64)
        if int(cache._home_slots(0, arr)[0]) == 7:
            colliders.append(key)
    keys = np.array(colliders, dtype=np.uint64)
    cache.insert(0, keys, np.arange(keys.size))
    got, found, _ = cache.lookup(0, keys)
    assert found.all()
    assert np.array_equal(got, np.arange(keys.size))
    assert cache.used == keys.size


# ----------------------------------------------------------------------
# Service-level exactness properties
# ----------------------------------------------------------------------
def _serve_stream(parents, xs, ys, at, **knobs):
    svc = LCAQueryService(
        config=ServiceConfig(max_batch_size=64, max_wait_s=2e-4, **knobs)
    )
    svc.register_tree("t", parents)
    tickets = svc.submit_many("t", xs, ys, at=at)
    svc.drain()
    return svc, svc.results(tickets)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_cache_on_off_answers_bit_identical(data):
    n = data.draw(st.integers(2, 400))
    seed = data.draw(st.integers(0, 1000))
    q = data.draw(st.integers(1, 500))
    parents = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    # Narrow key range => heavy intra-batch and cross-batch repetition.
    span = data.draw(st.integers(1, n))
    xs = rng.integers(0, span, q)
    ys = rng.integers(0, span, q)
    at = np.arange(q) / 1e5
    _, plain = _serve_stream(parents, xs, ys, at)
    _, dedup = _serve_stream(parents, xs, ys, at, dedup=True)
    _, cached = _serve_stream(parents, xs, ys, at, answer_cache_bytes=1 << 14)
    assert np.array_equal(plain, dedup)
    assert np.array_equal(plain, cached)


def test_cache_exact_across_repeated_streams_and_tiny_cache():
    # A cache too small for the working set must evict/reset its way
    # through, still answering exactly.
    parents = random_attachment_tree(600, seed=9)
    rng = np.random.default_rng(2)
    xs = rng.integers(0, 600, 5000)
    ys = rng.integers(0, 600, 5000)
    oracle = BinaryLiftingLCA(parents).query(xs, ys)
    svc = LCAQueryService(
        config=ServiceConfig(
            max_batch_size=128, max_wait_s=2e-4, answer_cache_bytes=MIN_CACHE_BYTES
        )
    )
    svc.register_tree("t", parents)
    for round_ in range(2):
        at = svc.clock.now + np.arange(5000) / 1e5
        tickets = svc.submit_many("t", xs, ys, at=at)
        svc.drain()
        assert np.array_equal(svc.results(tickets), oracle)
    assert svc.answer_cache.resets > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_scenarios_replay_exactly_with_cache(name):
    svc = LCAQueryService(
        config=ServiceConfig(
            max_batch_size=256, max_wait_s=2e-4, answer_cache_bytes=1 << 18
        )
    )
    # check_answers verifies against the oracle => exact with the cache on.
    report = replay(svc, make_scenario(name, scale=0.1), check_answers=True)
    stats = svc.stats()
    assert report.queries_admitted == stats.queries_answered > 0
    # Latency sanity: ordered percentiles, non-negative, finite.
    assert 0.0 <= stats.latency_p50_s <= stats.latency_p99_s
    assert stats.latency_p99_s <= stats.latency_max_s < float("inf")
    assert 0.0 <= stats.answer_cache_hit_rate <= 1.0
    assert 0.0 <= report.answer_cache_hit_rate <= 1.0
    assert stats.dedup_factor >= 1.0
    assert stats.kernel_queries <= stats.queries_answered
    for phase in report.phases:
        assert 0.0 <= phase.answer_cache_hit_rate <= 1.0


def test_skewed_hotspot_traffic_actually_hits_the_cache():
    svc = LCAQueryService(
        config=ServiceConfig(
            max_batch_size=256, max_wait_s=2e-4, answer_cache_bytes=1 << 18
        )
    )
    report = replay(svc, make_scenario("skewed-hotspot", scale=0.5))
    assert report.answer_cache_hit_rate > 0.5
    assert report.dedup_factor > 2.0
    stats = svc.stats()
    assert stats.answer_cache_hits > 0
    # Full-hit batches ride the host-side cache lane.
    assert stats.backend_choices.get("cache", 0) >= 0


def test_dispatcher_prices_unique_miss_count():
    # 4096 duplicates of one pair: without dedup the batch-size-4096 choice
    # is the GPU; with the skew path the kernel sees one unique pair and
    # must be priced (and charged) as a single-query CPU batch.
    parents = random_attachment_tree(64, seed=0)
    config = ServiceConfig(max_batch_size=4096, max_wait_s=1.0)
    plain = LCAQueryService(config=config)
    skew = LCAQueryService(config=config.derive(dedup=True))
    for svc in (plain, skew):
        svc.register_tree("t", parents)
        xs = np.full(4096, 3)
        ys = np.full(4096, 9)
        svc.submit_many("t", xs, ys, at=np.zeros(4096))
        svc.drain()
    assert plain.stats().backend_choices == {"gpu": 1}
    assert skew.stats().backend_choices == {"cpu1": 1}
    assert skew.stats().kernel_queries == 1
    assert skew.stats().dedup_factor == 4096.0


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
def test_one_replica_cluster_matches_service_with_cache():
    parents = random_attachment_tree(500, seed=4)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 120, 3000)
    ys = rng.integers(0, 120, 3000)
    at = np.arange(3000) / 2e5
    knobs = dict(max_batch_size=128, max_wait_s=2e-4, answer_cache_bytes=1 << 16)

    svc = LCAQueryService(config=ServiceConfig(**knobs))
    svc.register_tree("t", parents)
    service_tickets = svc.submit_many("t", xs, ys, at=at)
    svc.drain()

    cluster = ClusterService(config=ClusterConfig(n_replicas=1, **knobs))
    cluster.register_tree("t", parents)
    cluster_tickets = cluster.submit_many("t", xs, ys, at=at)
    cluster.drain()

    assert np.array_equal(
        svc.results(service_tickets), cluster.results(cluster_tickets)
    )
    # Bit-identical down to the full stats snapshot, answer cache included.
    assert cluster.stats().replicas[0] == svc.stats()


def test_cluster_aggregates_answer_cache_stats():
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=2,
            max_batch_size=64,
            max_wait_s=2e-4,
            answer_cache_bytes=1 << 16,
        )
    )
    parents = random_attachment_tree(200, seed=1)
    cluster.register_tree("t", parents, replicas=2)
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 20, 2000)
    ys = rng.integers(0, 20, 2000)
    cluster.submit_many("t", xs, ys, at=np.arange(2000) / 2e5)
    cluster.drain()
    stats = cluster.stats()
    per = stats.replicas
    assert stats.answer_cache_hits == sum(s.answer_cache_hits for s in per) > 0
    assert stats.answer_cache_misses == sum(s.answer_cache_misses for s in per)
    assert 0.0 < stats.answer_cache_hit_rate <= 1.0
    assert stats.dedup_factor > 1.0
    # Per-replica caches split the cluster budget.
    for replica in cluster.replicas:
        assert replica.answer_cache is not None
        assert replica.answer_cache.nbytes <= (1 << 16) // 2


def test_cluster_answer_cache_comes_out_of_byte_budget():
    with pytest.raises(ServiceError):
        ClusterService(
            config=ClusterConfig(
                n_replicas=2, capacity_bytes=1 << 16, answer_cache_bytes=1 << 16
            )
        )
    # A budget too small for every replica's cache minimum fails with a
    # cluster-level message, not deep inside replica construction.
    with pytest.raises(ServiceError, match="each of 4 replicas"):
        ClusterService(config=ClusterConfig(n_replicas=4, answer_cache_bytes=2048))
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=2, capacity_bytes=1 << 20, answer_cache_bytes=1 << 18
        )
    )
    for replica in cluster.replicas:
        assert replica.registry.capacity_bytes == ((1 << 20) - (1 << 18)) // 2
        assert replica.answer_cache is not None
