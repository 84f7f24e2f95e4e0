"""Hypothesis property tests for the parallel primitives."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.primitives import (
    SegmentTreeRMQ,
    SparseTableRMQ,
    exclusive_scan,
    inclusive_scan,
    segmented_inclusive_scan,
    segreduce_by_key,
    sort_pairs,
    wei_jaja_rank,
    wyllie_rank,
)

ints = st.integers(min_value=-10**6, max_value=10**6)


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, min_size=0, max_size=300))
def test_scan_last_element_is_total_sum(values):
    arr = np.asarray(values, dtype=np.int64)
    out = inclusive_scan(arr)
    if arr.size:
        assert out[-1] == arr.sum()
    assert np.array_equal(out, np.cumsum(arr))


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, min_size=1, max_size=300))
def test_inclusive_minus_exclusive_is_the_value(values):
    arr = np.asarray(values, dtype=np.int64)
    assert np.array_equal(inclusive_scan(arr) - exclusive_scan(arr), arr)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), ints), min_size=1, max_size=200))
def test_segmented_scan_matches_per_segment_cumsum(pairs):
    pairs.sort(key=lambda p: p[0])
    segments = np.asarray([p[0] for p in pairs], dtype=np.int64)
    values = np.asarray([p[1] for p in pairs], dtype=np.int64)
    out = segmented_inclusive_scan(values, segments)
    for seg in np.unique(segments):
        mask = segments == seg
        assert np.array_equal(out[mask], np.cumsum(values[mask]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), ints), min_size=0, max_size=200),
       st.sampled_from(["min", "max", "sum"]))
def test_segreduce_matches_python_groupby(pairs, op):
    keys = np.asarray([p[0] for p in pairs], dtype=np.int64)
    values = np.asarray([p[1] for p in pairs], dtype=np.int64)
    out = segreduce_by_key(keys, values, 10, op, identity=0 if op == "sum" else None)
    reducer = {"min": min, "max": max, "sum": sum}[op]
    for k in range(10):
        group = [int(v) for key, v in pairs if key == k]
        if group:
            assert out[k] == reducer(group)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=0, max_size=200))
def test_sort_pairs_is_a_sorted_permutation(pairs):
    first = np.asarray([p[0] for p in pairs], dtype=np.int64)
    second = np.asarray([p[1] for p in pairs], dtype=np.int64)
    sf, order = sort_pairs(first, second)
    ss = second[order]
    assert np.array_equal(sf, first[order])
    assert sorted(zip(first.tolist(), second.tolist())) == list(zip(sf.tolist(), ss.tolist()))
    if pairs:
        assert np.array_equal(np.sort(order), np.arange(len(pairs)))


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(40))), st.integers(1, 60))
def test_list_ranking_algorithms_agree(order, num_splitters):
    order = np.asarray(order, dtype=np.int64)
    n = order.size
    succ = np.full(n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    head = int(order[0])
    expected = np.empty(n, dtype=np.int64)
    expected[order] = np.arange(n)
    assert np.array_equal(wyllie_rank(succ, head), expected)
    assert np.array_equal(wei_jaja_rank(succ, head, num_splitters=num_splitters), expected)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(ints, min_size=1, max_size=300), st.data(),
       st.sampled_from(["min", "max"]))
def test_rmq_backends_agree_and_match_numpy(hang_guard, values, data, op):
    """Random (possibly empty) ranges, 1-D and scalar forms, both backends.

    The compacted segment-tree descent drops a lane the round it closes, so a
    batch mixes lanes of every length with lanes that never enter.
    """
    arr = np.asarray(values, dtype=np.int64)
    n = arr.size
    bounds = st.lists(st.integers(0, n - 1), min_size=1, max_size=30)
    lo = np.asarray(data.draw(bounds))
    hi = np.asarray(data.draw(st.lists(st.integers(0, n - 1),
                                       min_size=lo.size, max_size=lo.size)))
    reduce = np.minimum.reduce if op == "min" else np.maximum.reduce
    for backend in (SegmentTreeRMQ, SparseTableRMQ):
        rmq = backend(arr, op)
        reference = np.asarray([
            reduce(arr[a:b + 1], initial=rmq.identity) for a, b in zip(lo, hi)
        ])
        assert np.array_equal(rmq.query(lo, hi), reference)
        assert rmq.query(int(lo[0]), int(hi[0])) == reference[0]
