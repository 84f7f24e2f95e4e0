"""Routing layer tests: stable hashing, ring placement, router policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import (
    ROUTER_POLICIES,
    ConsistentHashRouter,
    HashRing,
    LeastOutstandingRouter,
    RoundRobinRouter,
    make_router,
    stable_hash,
)


def pick(router, dataset, copies, depth):
    """The replica a single query is routed to: a block of one."""
    return int(router.route_block(dataset, copies, depth, 1)[0])


# ----------------------------------------------------------------------
# stable_hash
# ----------------------------------------------------------------------

def test_stable_hash_is_deterministic_and_64_bit():
    assert stable_hash("dataset-a") == stable_hash("dataset-a")
    assert stable_hash("dataset-a") != stable_hash("dataset-b")
    for key in ("", "x", "a" * 100):
        assert 0 <= stable_hash(key) < 1 << 64


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------

def test_ring_place_returns_distinct_replicas_capped_at_ring_size():
    ring = HashRing(range(4))
    for count in (1, 2, 4):
        placed = ring.place("some-dataset", count)
        assert len(placed) == count
        assert len(set(placed)) == count
        assert all(0 <= r < 4 for r in placed)
    # Requesting more copies than replicas caps at the ring size.
    assert len(ring.place("some-dataset", 99)) == 4
    with pytest.raises(ServiceError):
        ring.place("some-dataset", 0)


def test_ring_is_deterministic_across_instances():
    a = HashRing(range(8))
    b = HashRing(range(8))
    for i in range(50):
        assert a.place(f"ds-{i}", 3) == b.place(f"ds-{i}", 3)


def test_ring_spreads_primaries_across_replicas():
    ring = HashRing(range(8))
    primaries = {ring.place(f"ds-{i}")[0] for i in range(200)}
    assert len(primaries) == 8  # every replica is someone's primary


def test_ring_add_only_moves_keys_onto_the_new_replica():
    before = HashRing(range(8))
    after = HashRing(range(8))
    after.add(8)
    keys = [f"ds-{i}" for i in range(300)]
    moved = 0
    for key in keys:
        old, new = before.place(key), after.place(key)
        if old != new:
            moved += 1
            assert new == [8]  # a changed primary can only be the newcomer
    # Consistent hashing: roughly 1/9 of keys move, never the majority.
    assert 0 < moved < len(keys) // 2


def test_ring_remove_only_moves_keys_owned_by_the_removed_replica():
    full = HashRing(range(8))
    smaller = HashRing(range(8))
    smaller.remove(3)
    for i in range(300):
        key = f"ds-{i}"
        old = full.place(key, 2)
        new = smaller.place(key, 2)
        if 3 not in old:
            assert new == old  # untouched placements are bit-identical
        else:
            assert 3 not in new
    assert smaller.replica_ids == (0, 1, 2, 4, 5, 6, 7)


def test_ring_membership_errors():
    ring = HashRing([0])
    with pytest.raises(ServiceError):
        ring.add(0)
    with pytest.raises(ServiceError):
        ring.remove(7)
    with pytest.raises(ServiceError):
        ring.remove(0)  # cannot empty the ring
    with pytest.raises(ServiceError):
        HashRing([])
    with pytest.raises(ServiceError):
        HashRing([0], vnodes=0)


# ----------------------------------------------------------------------
# RoundRobinRouter
# ----------------------------------------------------------------------

def test_round_robin_cycles_copies_per_dataset():
    router = RoundRobinRouter()
    copies = (5, 2, 9)
    depth = np.zeros(3, dtype=np.int64)
    picks = [pick(router, "a", copies, depth) for _ in range(7)]
    assert picks == [5, 2, 9, 5, 2, 9, 5]
    # A different dataset has its own cursor.
    assert pick(router, "b", copies, depth) == 5
    # The block form continues dataset a's cursor exactly where it left off.
    block = router.route_block("a", copies, depth, 4)
    assert block.tolist() == [2, 9, 5, 2]


def test_round_robin_block_matches_per_query_routing():
    copies = (0, 1, 2, 3)
    depth = np.zeros(4, dtype=np.int64)
    blocked = RoundRobinRouter().route_block("d", copies, depth, 10)
    single = RoundRobinRouter()
    assert blocked.tolist() == [pick(single, "d", copies, depth) for _ in range(10)]


# ----------------------------------------------------------------------
# LeastOutstandingRouter
# ----------------------------------------------------------------------

def test_least_outstanding_waterfills_towards_equal_depth():
    router = LeastOutstandingRouter()
    assignment = router.route_block("d", (10, 20, 30), np.array([5, 0, 0]), 7)
    # The two empty copies alternate (ties break by placement order) until
    # everyone levels; copy 10 (depth 5) never receives a query.
    assert assignment.tolist() == [20, 30, 20, 30, 20, 30, 20]


def test_least_outstanding_single_query_picks_min_depth_tie_lowest():
    router = LeastOutstandingRouter()
    assert pick(router, "d", (7, 8, 9), np.array([3, 1, 1])) == 8
    assert pick(router, "d", (7, 8, 9), np.array([0, 0, 0])) == 7


def test_least_outstanding_rejects_mismatched_depths():
    with pytest.raises(ServiceError):
        LeastOutstandingRouter().route_block("d", (0, 1), np.array([1, 2, 3]), 4)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_least_outstanding_block_equals_greedy_simulation(k, size, seed):
    rng = np.random.default_rng(seed)
    depth = rng.integers(0, 20, size=k)
    copies = tuple(range(100, 100 + k))
    blocked = LeastOutstandingRouter().route_block("d", copies, depth.copy(), size)
    # Reference: assign one query at a time to the least-loaded copy,
    # ties broken by placement order.
    load = depth.astype(np.int64).copy()
    expected = []
    for _ in range(size):
        j = int(np.argmin(load))
        expected.append(copies[j])
        load[j] += 1
    assert blocked.tolist() == expected


def bisection_route_block(copies, outstanding, size):
    """The earlier least-outstanding assignment, kept as the oracle: bisect
    for the water level, then lexsort every slot by (key, placement)."""
    k = len(copies)
    if size == 0:
        return np.empty(0, dtype=np.int64)
    copies_arr = np.asarray(copies, dtype=np.int64)
    if k == 1:
        return np.full(size, copies_arr[0], dtype=np.int64)
    depth = np.asarray(outstanding, dtype=np.int64)

    def supply(level):
        return int(np.clip(level - depth, 0, None).sum())

    lo = int(depth.min())
    hi = lo + size + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if supply(mid) >= size:
            hi = mid
        else:
            lo = mid
    counts = np.clip(hi - 1 - depth, 0, None).astype(np.int64)
    remainder = size - int(counts.sum())
    if remainder:
        counts[np.flatnonzero(depth <= hi - 1)[:remainder]] += 1
    levels = np.concatenate(
        [depth[j] + np.arange(counts[j], dtype=np.int64) for j in range(k)]
    )
    owner = np.repeat(np.arange(k, dtype=np.int64), counts)
    return copies_arr[owner[np.lexsort((owner, levels))]]


def test_least_outstanding_closed_form_matches_the_bisection_oracle():
    rng = np.random.default_rng(2027)
    router = LeastOutstandingRouter()
    for case in range(600):
        k = int(rng.integers(1, 9))
        copies = tuple(int(c) for c in rng.permutation(16)[:k])
        depth = rng.integers(0, 10 ** int(rng.integers(1, 5)) + 1, size=k)
        if case % 3 == 0:
            depth[rng.integers(0, k, size=k)] = depth[0]  # ties
        if case % 5 == 0:
            depth[int(rng.integers(0, k))] = 10_000  # far above the water
        size = int(rng.integers(0, 10 ** int(rng.integers(0, 6)) + 1))
        expected = bisection_route_block(copies, depth, size)
        blocked = router.route_block("d", copies, depth.copy(), size)
        assert blocked.dtype == np.int64
        assert blocked.tolist() == expected.tolist(), (copies, depth, size)
        assert pick(router, "d", copies, depth) == int(
            bisection_route_block(copies, depth, 1)[0]
        )


# ----------------------------------------------------------------------
# ConsistentHashRouter
# ----------------------------------------------------------------------

def test_consistent_hash_pins_each_dataset_to_one_stable_copy():
    router = ConsistentHashRouter()
    copies = (0, 1, 2, 3)
    depth = np.zeros(4, dtype=np.int64)
    block = router.route_block("ds", copies, depth, 16)
    assert len(set(block.tolist())) == 1
    winner = int(block[0])
    # The pick ignores load and repeated calls agree.
    assert pick(router, "ds", copies, np.array([9, 9, 9, 9])) == winner
    # Removing a *different* copy never moves the dataset (rendezvous).
    survivors = tuple(c for c in copies if c != (winner + 1) % 4)
    assert pick(router, "ds", survivors, np.zeros(3, dtype=np.int64)) == winner


def test_consistent_hash_spreads_distinct_datasets():
    router = ConsistentHashRouter()
    copies = (0, 1, 2, 3)
    depth = np.zeros(4, dtype=np.int64)
    winners = {pick(router, f"ds-{i}", copies, depth) for i in range(60)}
    assert len(winners) == 4


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------

def test_make_router_builds_every_policy():
    for policy in ROUTER_POLICIES:
        assert make_router(policy).name == policy
    assert ROUTER_POLICIES == ("round-robin", "least-outstanding", "consistent-hash")
    with pytest.raises(ServiceError):
        make_router("magic")


# ----------------------------------------------------------------------
# Removal properties (hypothesis)
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(0, 31), min_size=2, max_size=8, unique=True),
    victim_index=st.integers(0, 7),
    count=st.integers(1, 3),
    key_seed=st.integers(0, 1 << 16),
)
def test_property_remove_only_moves_victim_owned_placements(
    ids, victim_index, count, key_seed
):
    victim = ids[victim_index % len(ids)]
    full = HashRing(ids)
    shrunk = HashRing(ids)
    shrunk.remove(victim)
    assert shrunk.replica_ids == tuple(sorted(set(ids) - {victim}))
    for i in range(40):
        key = f"ds-{key_seed}-{i}"
        old = full.place(key, count)
        new = shrunk.place(key, count)
        assert victim not in new
        if victim not in old:
            # Placements the victim never owned are bit-identical.
            assert new == old
        else:
            # Only the victim's slots are refilled; the survivors keep
            # their membership (order may shift as arcs merge).
            survivors = [r for r in old if r != victim]
            assert all(r in new for r in survivors)
            assert len(new) == min(count, len(ids) - 1)


@settings(max_examples=60, deadline=None)
@given(
    copies=st.lists(st.integers(0, 31), min_size=2, max_size=8, unique=True),
    drop_index=st.integers(0, 7),
    key_seed=st.integers(0, 1 << 16),
)
def test_property_consistent_hash_respects_post_removal_ownership(
    copies, drop_index, key_seed
):
    router = ConsistentHashRouter()
    depth = np.zeros(len(copies), dtype=np.int64)
    dataset = f"ds-{key_seed}"
    winner = pick(router, dataset, tuple(copies), depth)
    dropped = copies[drop_index % len(copies)]
    survivors = tuple(c for c in copies if c != dropped)
    routed = pick(router, dataset, survivors, np.zeros(len(survivors), dtype=np.int64))
    if dropped == winner:
        # The owner left: the new pick must be a real survivor.
        assert routed in survivors
    else:
        # Rendezvous hashing: unrelated churn never moves the dataset.
        assert routed == winner
