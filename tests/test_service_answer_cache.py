"""Skew-aware serving: dedup kernel, answer cache, and exactness properties.

The load-bearing invariant of the whole skew-aware fast path is *exactness*:
with canonicalization, intra-batch dedup and the answer cache all enabled,
every answer is bit-identical to the plain path's.  The tests here enforce
that three ways — hypothesis properties over the cache and the dedup
helpers, full named-scenario replays checked against the binary-lifting
oracle, and adversarial hash-collision / eviction cases constructed directly
against :class:`repro.service.cache.AnswerCache`.  Duplicate-heavy streams
through the whole service, cache on and off, are held against the serving
spec in ``tests/test_serving_spec.py``.
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
    first_appearance_counts,
    pack_query_pairs,
    run_batched_queries,
    unique_packed_keys,
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
from repro.service import service as service_module
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


@given(st.lists(st.integers(0, 40), max_size=60), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unique_packed_keys_is_np_unique(raw, spread):
    # ``spread`` multiplies the keys apart so that most batches hold no
    # repeat (the order-only branch); without it most do.  Sizes 0, 1 and 2
    # are ordinary draws of ``raw``.
    keys = np.array(raw, dtype=np.uint64)
    if spread:
        keys = keys * np.uint64(1 << 40) + np.arange(keys.size, dtype=np.uint64)
    want_unique, want_inverse = np.unique(keys, return_inverse=True)
    unique_keys, order, inverse = unique_packed_keys(keys)
    assert unique_keys.dtype == np.uint64
    assert np.array_equal(unique_keys, want_unique)
    assert np.array_equal(keys[order], np.sort(keys))
    if inverse is None:
        assert want_unique.size == keys.size
        assert np.array_equal(unique_keys, keys[order])
    else:
        assert want_unique.size < keys.size
        assert np.array_equal(inverse, want_inverse.reshape(-1))
    # ``dedup_query_pairs`` is the same kernel behind pack / unpack.
    xs = (keys >> np.uint64(32)).astype(np.int64)
    ys = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)
    packed = pack_query_pairs(xs, ys)
    larger = np.maximum(xs, ys).view(np.uint64)  # a validator's column
    assert np.array_equal(pack_query_pairs(xs, ys, larger), packed)
    ux, uy, scatter = dedup_query_pairs(xs, ys)
    pu, pinv = np.unique(packed, return_inverse=True)
    assert np.array_equal(pack_query_pairs(ux, uy), pu)
    assert np.array_equal(scatter, pinv.reshape(-1))


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
def counters(cache):
    return cache.hits, cache.misses, cache.resets


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


@pytest.mark.parametrize(
    "keys",
    [
        np.array([[7, 9]], dtype=np.uint64),  # both keys cached, but not 1-D
        np.array([7, 9], dtype=np.int64),
        np.array([7.0, 9.0]),
        np.uint64(7),
        [7, 9],
    ],
    ids=["2d-uint64", "int64", "float64", "scalar", "list"],
)
def test_cache_refuses_keys_that_are_not_1d_uint64(keys):
    cache = AnswerCache(MIN_CACHE_BYTES)
    good = np.array([7, 9], dtype=np.uint64)
    cache.insert(0, good, np.array([41, 42]))
    with pytest.raises(ServiceError, match="1-D uint64"):
        cache.lookup(0, keys)
    with pytest.raises(ServiceError, match="1-D uint64"):
        cache.insert(0, keys, np.array([1, 2]))
    # The refused calls moved nothing.
    assert counters(cache) == (0, 0, 0) and cache.used == 2
    assert cache.lookup(0, good)[0].tolist() == [41, 42]


def test_cache_same_key_of_another_space_on_the_chain_is_not_a_hit():
    # Space 0's chain for ``key`` passes over the slot where space 1 keeps
    # the *same* key: the probe must step past it (key matches, stamp does
    # not) and still find space 0's own entry further along.
    cache = AnswerCache(MIN_CACHE_BYTES, seed=4)

    def home(space, k):
        return int(cache._home_slots(space, np.array([k], dtype=np.uint64))[0])

    key = next(k for k in range(1, 1 << 20)
               if home(1, k) == (home(0, k) + 1) % cache.slots)
    blocker = next(k for k in range(1, 1 << 20)
                   if k != key and home(0, k) == home(0, key))
    keys = np.array([key], dtype=np.uint64)
    cache.insert(0, np.array([blocker], dtype=np.uint64), np.array([1]))
    cache.insert(1, keys, np.array([11]))
    assert cache.lookup(0, keys)[1].tolist() == [False]
    cache.insert(0, keys, np.array([10]))  # lands two slots past its home
    assert cache.lookup(0, keys)[0].tolist() == [10]
    assert cache.lookup(1, keys)[0].tolist() == [11]
    assert counters(cache) == (2, 1, 0)


def test_cache_insert_counts_every_copy_of_a_repeated_key():
    # Documented contract: repeats within one insert are the caller's to
    # remove (the serving layer passes unique keys); each copy is counted.
    cache = AnswerCache(MIN_CACHE_BYTES)
    cache.insert(0, np.array([5, 5, 5], dtype=np.uint64), np.array([1, 1, 1]))
    assert cache.used == 3
    assert cache.lookup(0, np.array([5], dtype=np.uint64))[0].tolist() == [1]


def test_cache_epoch_wrap_zeroes_the_table_and_the_memoized_stamps():
    cache = AnswerCache(MIN_CACHE_BYTES)  # 64 slots: the wrap's fill is free
    spaces = (0, 1, 77)
    old = np.array([11], dtype=np.uint64)
    for space in spaces:
        cache.insert(space, old, np.array([space]))  # stamped with epoch 1
    wrap = (1 << 12) - 1
    for i in range(1, wrap + 1):
        cache.reset()
        epoch = i + 1 if i < wrap else 1
        # No (epoch, space) word outlives a reset, for any space seen before.
        assert [int(cache._stamp(s)) for s in spaces] == [
            (epoch << 52) | (s << 32) for s in spaces
        ]
        key = np.array([1000 + i], dtype=np.uint64)
        cache.insert(0, key, np.array([i]))
        assert cache.lookup(0, key)[0].tolist() == [i]
        assert not cache.lookup(0, key - np.uint64(1))[1].any()
    assert cache.resets == wrap
    # Back in epoch 1: without the zeroing, the first entries would revive.
    for space in spaces:
        assert not cache.lookup(space, old)[1].any()
    cache.insert(1, old, np.array([5]))
    assert cache.lookup(1, old)[0].tolist() == [5]
    assert not cache.lookup(0, old)[1].any()


@pytest.mark.parametrize("slots", [64, 4096])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cache_agrees_with_a_dict_model(slots, data):
    """lookup / insert / reset in any order behave like a dict with the same
    load rule: ``used + m > max_used`` clears first, and an insert larger
    than ``max_used`` keeps its first ``max_used`` keys as passed."""
    cache = AnswerCache(slots * BYTES_PER_SLOT, seed=data.draw(st.integers(0, 3)))
    assert cache.slots == slots
    max_used = int(slots * 0.7)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    pool = np.unique(rng.integers(0, 1 << 63, 16 * slots).astype(np.uint64))
    pool = rng.permutation(pool)
    issued = 0  # pool[:issued] have been inserted at some point
    model = {}
    hits = misses = resets = 0
    counts = st.one_of(st.integers(0, 12), st.integers(0, max_used + 20))
    for _ in range(data.draw(st.integers(1, 14))):
        op = data.draw(st.sampled_from(["lookup", "lookup", "insert", "insert", "reset"]))
        space = data.draw(st.integers(0, 2))
        if op == "reset":
            cache.reset()
            model.clear()
            resets += 1
        elif op == "lookup":
            # Repeats included; indices past ``issued`` are never-seen keys.
            picks = data.draw(st.lists(st.integers(0, issued + 5), max_size=40))
            keys = pool[np.array(picks, dtype=np.int64)]
            values, found, got = cache.lookup(space, keys)
            want = [(space, k) in model for k in keys.tolist()]
            assert found.tolist() == want
            assert values[found].tolist() == [
                model[space, k] for k, w in zip(keys.tolist(), want) if w
            ]
            assert got == sum(want)
            hits += got
            misses += len(want) - got
        else:
            count = min(data.draw(counts), pool.size - issued)
            keys = pool[issued : issued + count]  # distinct, never inserted
            values = rng.integers(0, 1 << 32, count)
            issued += count
            cache.insert(space, keys, values)
            if count and len(model) + count > max_used:
                model.clear()
                resets += 1
            kept = min(count, max_used)
            model.update(zip(((space, k) for k in keys[:kept].tolist()),
                             values[:kept].tolist()))
        assert counters(cache) == (hits, misses, resets)
        assert cache.used == len(model)
    for space in range(3):
        keys = np.array([k for s, k in model if s == space], dtype=np.uint64)
        values, found, _ = cache.lookup(space, keys)
        assert found.all()
        assert values.tolist() == [model[space, k] for k in keys.tolist()]


# ----------------------------------------------------------------------
# One probe and one insert a span ≡ a probe and an insert a batch
# ----------------------------------------------------------------------
def answer_of(keys):
    return (keys % np.uint64(1000)).astype(np.int64)


def batch_loop(cache, space, batches):
    """The reference: for each batch, ``lookup``, then ``insert`` its distinct
    misses.  Returns per batch ``(hits, unique misses)``."""
    counts = []
    for keys in batches:
        _, found, hits = cache.lookup(space, keys)
        missing = np.unique(keys[~found])
        cache.insert(space, missing, answer_of(missing))
        counts.append((hits, missing.size))
    return counts


def span_at_once(cache, space, batches):
    """What ``LCAQueryService`` does with a span: one ``lookup``, one sort, the
    later-batch copies credited as hits, one ``insert`` — when the lanes fit
    the headroom; batch by batch (one-batch spans) when they might not."""
    keys = np.concatenate(batches)
    if len(batches) > 1 and keys.size > cache.headroom:
        return [count for keys in batches
                for count in span_at_once(cache, space, [keys])]
    sizes = np.array([b.size for b in batches])
    batch_of = np.repeat(np.arange(len(batches)), sizes)
    _, found, _ = cache.lookup(space, keys)
    unique_keys, order, inverse = unique_packed_keys(keys[~found])
    unique, misses = first_appearance_counts(
        order, inverse, batch_of[~found], len(batches), carried=True)
    cache.credit_hits(int(np.count_nonzero(~found) - misses.sum()))
    cache.insert(space, unique_keys, answer_of(unique_keys))
    return list(zip((sizes - misses).tolist(), unique.tolist()))


def assert_same_cache(cache, other, probes):
    assert counters(cache) == counters(other)
    assert (cache.used, cache.headroom) == (other.used, other.headroom)
    for space, keys in probes:
        values, found, _ = cache.lookup(space, keys)
        other_values, other_found, _ = other.lookup(space, keys)
        assert np.array_equal(found, other_found)
        assert np.array_equal(values[found], other_values[found])
        assert np.array_equal(values[found], answer_of(keys[found]))


def colliding_keys(cache, space, slot, count, start=1):
    """``count`` distinct keys whose home slot in ``space`` is ``slot``."""
    found, key = [], start
    while len(found) < count:
        if int(cache._home_slots(space, np.array([key], dtype=np.uint64))[0]) == slot:
            found.append(key)
        key += 1
    return np.array(found, dtype=np.uint64)


def test_span_probe_equals_the_batch_loop_on_one_chain_and_two_spaces():
    # Every key of both spaces hashes to home slot 5 of a 64-slot table (fixed
    # seed): one long chain, shared by two spaces, probed and filled by spans
    # whose keys repeat within a batch, across batches and across spans.
    caches = [AnswerCache(MIN_CACHE_BYTES, seed=3) for _ in range(2)]
    a = colliding_keys(caches[0], 0, 5, 12)
    b = colliding_keys(caches[0], 1, 5, 8)
    spans = [
        (0, [a[[0, 1, 0]], a[[1, 2, 2, 0]], a[[3]]]),       # copies of every kind
        (1, [b[[0, 1]], b[[1, 0]], b[[2, 2]]]),             # same keys? other space
        (0, [a[[0, 4, 5]], a[[5, 6, 4, 1]], a[[7, 7, 6]]]),  # table hits too
        (1, [b[:6], b[4:8]]),
    ]
    for space, batches in spans:
        got = span_at_once(caches[0], space, batches)
        assert got == batch_loop(caches[1], space, batches)
    # The last span: three table hits, two later-batch copies.
    assert got == [(3, 3), (2, 2)]
    assert caches[0].resets == 0 and caches[0].hits > 0
    assert_same_cache(*caches, [(0, a), (1, b), (0, b), (1, a)])


@pytest.mark.parametrize("over", [0, 1], ids=["fills-exactly", "one-key-over"])
def test_span_probe_at_the_edge_of_the_headroom(over):
    caches = [AnswerCache(MIN_CACHE_BYTES, seed=7) for _ in range(2)]
    keys = np.arange(1, 200, dtype=np.uint64) * np.uint64(0x9E3779B1)
    for cache in caches:
        cache.insert(0, keys[:10], answer_of(keys[:10]))
    room = caches[0].headroom
    assert room == int(64 * 0.7) - 10
    # ``room + over`` lanes, all distinct and new, in four batches: the span
    # either lands on the load bound without a reset, or must not be a span.
    lanes = keys[10:10 + room + over]
    batches = np.array_split(lanes, 4)
    calls = []
    insert = caches[0].insert
    caches[0].insert = lambda *args: calls.append(args[1].size) or insert(*args)
    assert span_at_once(caches[0], 0, batches) == batch_loop(caches[1], 0, batches)
    if over:
        # Batch by batch the reset falls at the last batch, which survives it.
        assert calls == [b.size for b in batches] and caches[0].resets == 1
        assert caches[0].used == batches[-1].size
    else:
        assert calls == [room] and caches[0].resets == 0
        assert caches[0].headroom == 0
    assert_same_cache(*caches, [(0, keys)])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_span_probe_agrees_with_the_batch_loop(data):
    seed, slots = data.draw(st.integers(0, 3)), data.draw(st.sampled_from((64, 256)))
    caches = [AnswerCache(slots * BYTES_PER_SLOT, seed=seed) for _ in range(2)]
    pool = np.arange(1, 41, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    batch = st.lists(st.integers(0, pool.size - 1), min_size=1, max_size=12)
    for _ in range(data.draw(st.integers(1, 8))):
        space = data.draw(st.integers(0, 1))
        batches = [pool[np.array(picks)] for picks in
                   data.draw(st.lists(batch, min_size=1, max_size=5))]
        assert (span_at_once(caches[0], space, batches)
                == batch_loop(caches[1], space, batches))
        assert_same_cache(*caches, [(0, pool), (1, pool)])


# ----------------------------------------------------------------------
# Service-level exactness properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cached", [False, True], ids=["dedup-only", "cache"])
def test_every_branch_of_the_deduped_batch_path_is_exact(cached):
    # One block, cut into 8-query batches by the size cap, so nothing is
    # cached at admission and every batch probes at serve time:
    #   batch 1  distinct pairs, nothing cached   -> kernel in batch order
    #   batch 2  distinct, half seen in batch 1   -> partial hit, no repeat
    #   batch 3  new pairs, each asked twice      -> repeats, nothing cached
    #   batch 4  repeats and pairs of batch 3     -> partial hit with repeats
    #   batch 5  batch 1 again, endpoints swapped -> full hit
    parents = random_attachment_tree(300, seed=11)
    a = np.arange(8)
    xs = np.concatenate([a, a[:4], 100 + a[:4], 200 + a[:4], 200 + a[:4],
                         250 + a[:2], 250 + a[:2], 200 + a[:4], 50 + a])
    ys = np.concatenate([50 + a, 50 + a[:4], 150 + a[:4], 20 + a[:4], 20 + a[:4],
                         30 + a[:2], 30 + a[:2], 20 + a[:4], a])
    assert xs.size == 40
    knobs = {"answer_cache_bytes": 1 << 14} if cached else {"dedup": True}
    svc = LCAQueryService(
        config=ServiceConfig(max_batch_size=8, max_wait_s=1.0, **knobs)
    )
    svc.register_tree("t", parents)
    tickets = svc.submit_many("t", xs, ys, at=np.zeros(40))
    svc.drain()
    assert np.array_equal(svc.results(tickets), BinaryLiftingLCA(parents).query(xs, ys))
    stats = svc.stats()
    assert stats.batches_flushed == 5
    # Unique pairs the kernel ran: 8 + (4 or 8) + 4 + (2 or 6) + (0 or 8).
    assert stats.kernel_queries == (18 if cached else 34)
    if cached:
        # Misses: the front-door probe of the whole block, then per batch.
        assert counters(svc.answer_cache) == (4 + 4 + 8, 40 + 8 + 4 + 8 + 4, 0)


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


def test_a_full_hit_block_that_reaches_no_deadline_makes_no_serve_call(monkeypatch):
    """A memoized block is one pack and one probe; its arrivals expire nothing,
    so it makes no ``_expired_batches`` or ``_serve_run`` call, and its hits
    are booked from their one latency value.  The control: a block whose
    arrivals pass a queued miss's wait deadline makes one call of each."""
    parents = random_attachment_tree(200, seed=5)
    svc = LCAQueryService(config=ServiceConfig(
        max_batch_size=64, max_wait_s=1e-3, answer_cache_bytes=1 << 16))
    svc.register_tree("t", parents)
    hot_x, hot_y = np.arange(1, 21), np.arange(21, 41)
    svc.submit_many("t", hot_x, hot_y, at=np.zeros(20))
    svc.drain()
    calls = {"_expired_batches": [], "_serve_run": [], "lookup": [], "pack": [],
             "record_span": []}

    def spy(obj, name, log):
        method = getattr(obj, name)

        def logged(*args, **kwargs):
            log.append(args)
            return method(*args, **kwargs)
        monkeypatch.setattr(obj, name, logged)

    for name in ("_expired_batches", "_serve_run"):
        spy(svc, name, calls[name])
    spy(svc.answer_cache, "lookup", calls["lookup"])
    spy(svc.stats_collector, "record_span", calls["record_span"])
    spy(service_module, "pack_query_pairs", calls["pack"])
    pick = np.random.default_rng(6).integers(0, 20, 300)
    at = 1e-3 + np.arange(300) * 1e-6
    tickets = svc.submit_many("t", hot_y[pick], hot_x[pick], at=at)
    assert {name: len(log) for name, log in calls.items()} == {
        "_expired_batches": 0, "_serve_run": 0, "lookup": 1, "pack": 1,
        "record_span": 1}
    sizes, latency = calls["record_span"][0][0], calls["record_span"][0][4]
    assert sizes == [300] and np.ndim(latency) == 0
    assert svc.clock.now == at[-1]
    assert svc.results(tickets).tolist() == BinaryLiftingLCA(parents).query(
        hot_x[pick], hot_y[pick]).tolist()
    assert np.all(svc.latencies(tickets) == latency)

    # The control: a miss waits until 2.5 ms + 1 ms; the next block spans it.
    queued = svc.submit_many("t", [50], [60], at=[2.5e-3])
    assert svc.pending_count() == 1
    for log in calls.values():
        log.clear()
    svc.submit_many("t", hot_x[pick], hot_y[pick],
                    at=3e-3 + np.arange(300) * 2e-6)
    assert len(calls["_expired_batches"]) == len(calls["_serve_run"]) == 1
    oracle = BinaryLiftingLCA(parents)
    assert svc.results(queued).tolist() == oracle.query([50], [60]).tolist()


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
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
