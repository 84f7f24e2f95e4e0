"""Routing layer tests: stable hashing, rendezvous placement, router policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import (
    ROUTER_POLICIES,
    ConsistentHashRouter,
    ClusterConfig,
    ClusterService,
    LeastOutstandingRouter,
    RoundRobinRouter,
    make_router,
    rendezvous,
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
# rendezvous
# ----------------------------------------------------------------------

def test_rendezvous_returns_distinct_replicas_capped_at_the_set_size():
    for count in (1, 2, 4):
        placed = rendezvous("some-dataset", range(4), count)
        assert len(placed) == count
        assert len(set(placed)) == count
        assert all(0 <= r < 4 for r in placed)
    # Requesting more copies than replicas caps at the set size.
    assert sorted(rendezvous("some-dataset", range(4), 99)) == [0, 1, 2, 3]


def test_rendezvous_ranks_by_weight_whatever_the_input_order():
    ranked = rendezvous("ds", (7, 3, 5), 3)
    weights = [stable_hash(f"ds@{r}") for r in ranked]
    assert weights == sorted(weights, reverse=True)
    # The input order is no input: the ranking is a function of the set.
    for i in range(50):
        assert rendezvous(f"ds-{i}", range(8), 3) == rendezvous(
            f"ds-{i}", reversed(range(8)), 3
        )


def test_rendezvous_spreads_primaries_across_replicas():
    primaries = {rendezvous(f"ds-{i}", range(8), 1)[0] for i in range(200)}
    assert primaries == set(range(8))  # every replica is someone's primary


def test_rendezvous_add_only_moves_keys_onto_the_new_replica():
    keys = [f"ds-{i}" for i in range(300)]
    moved = 0
    for key in keys:
        old, new = rendezvous(key, range(8), 1), rendezvous(key, range(9), 1)
        if old != new:
            moved += 1
            assert new == (8,)  # a changed primary can only be the newcomer
    # Roughly 1/9 of keys move, never the majority.
    assert 0 < moved < len(keys) // 2


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


@pytest.mark.parametrize("replicas", [2, 3, 0])
def test_consistent_hash_routes_a_hashed_dataset_to_its_primary(replicas):
    """Placement and routing rank copies by the same weights, so every query
    for a hash-placed dataset lands on ``placement[0]``."""
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=4, router="consistent-hash")
    )
    for i in range(12):
        cluster.register_tree(f"ds-{i}", [-1, 0, 0, 1], replicas=replicas)
    for name in cluster.datasets:
        before = [w.stats().queries_answered for w in cluster.replicas]
        cluster.submit_many(name, [1, 2, 3], [3, 1, 2])
        cluster.drain()
        after = [w.stats().queries_answered for w in cluster.replicas]
        served = {r for r, (b, a) in enumerate(zip(before, after)) if a > b}
        assert served == {cluster.placement(name)[0]}


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
# Membership properties (hypothesis)
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
    survivors = [r for r in ids if r != victim]
    for i in range(40):
        key = f"ds-{key_seed}-{i}"
        old = rendezvous(key, ids, count)
        new = rendezvous(key, survivors, count)
        assert victim not in new
        if victim not in old:
            # Placements the victim never owned are bit-identical.
            assert new == old
        else:
            # Only the victim's slot is refilled: the survivors keep their
            # relative order and the next-ranked replica joins at the end.
            kept = tuple(r for r in old if r != victim)
            assert new[:len(kept)] == kept
            assert len(new) == min(count, len(survivors))
        # The full ranking loses the victim and nothing else moves.
        assert rendezvous(key, survivors, len(ids)) == tuple(
            r for r in rendezvous(key, ids, len(ids)) if r != victim
        )


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(0, 31), min_size=1, max_size=8, unique=True),
    newcomer=st.integers(32, 40),
    key_seed=st.integers(0, 1 << 16),
)
def test_property_add_only_inserts_the_newcomer(ids, newcomer, key_seed):
    grown = ids + [newcomer]
    for i in range(40):
        key = f"ds-{key_seed}-{i}"
        old = rendezvous(key, ids, len(ids))
        new = rendezvous(key, grown, len(grown))
        # The newcomer is inserted somewhere; every old replica keeps its
        # relative order.
        assert tuple(r for r in new if r != newcomer) == old


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
