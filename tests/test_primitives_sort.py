"""Tests for sorting primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import argsort_values, sort_key_value, sort_pairs, sort_values


class TestSortValues:
    def test_sorted_output(self):
        out = sort_values(np.asarray([3, 1, 2]))
        assert out.tolist() == [1, 2, 3]

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10**6, size=5000)
        assert np.array_equal(sort_values(values), np.sort(values))

    def test_empty(self):
        assert sort_values(np.asarray([], dtype=np.int64)).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            sort_values(np.zeros((2, 2)))

    def test_charges_more_for_wider_keys(self, gpu_ctx):
        from repro.device import ExecutionContext, GTX980

        small_ctx = ExecutionContext(GTX980)
        sort_values(np.arange(1000) % 100, ctx=small_ctx)
        wide_ctx = ExecutionContext(GTX980)
        sort_values(np.arange(1000) * 10**6, ctx=wide_ctx)
        assert wide_ctx.total_launches > small_ctx.total_launches


class TestArgsortValues:
    def test_stable_and_correct(self):
        values = np.asarray([2, 1, 2, 0])
        order = argsort_values(values)
        assert values[order].tolist() == [0, 1, 2, 2]
        # stability: the two 2s keep their original relative order
        assert order.tolist() == [3, 1, 0, 2]


class TestSortPairs:
    def test_lexicographic_order(self):
        first = np.asarray([2, 0, 2, 1])
        second = np.asarray([1, 5, 0, 3])
        sf, order = sort_pairs(first, second)
        pairs = list(zip(sf.tolist(), second[order].tolist()))
        assert pairs == sorted(zip(first.tolist(), second.tolist()))
        assert np.array_equal(first[order], sf)

    def test_order_is_permutation(self):
        rng = np.random.default_rng(1)
        first = rng.integers(0, 100, size=1000)
        second = rng.integers(0, 100, size=1000)
        _, order = sort_pairs(first, second)
        assert np.array_equal(np.sort(order), np.arange(1000))

    def test_matches_lexsort(self):
        rng = np.random.default_rng(2)
        first = rng.integers(0, 50, size=500)
        second = rng.integers(0, 50, size=500)
        sf, order = sort_pairs(first, second)
        ref = np.lexsort((second, first))
        assert np.array_equal(sf, first[ref])
        assert np.array_equal(order, ref)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sort_pairs(np.asarray([1, 2]), np.asarray([1]))

    def test_empty(self):
        sf, order = sort_pairs(np.asarray([], dtype=np.int64),
                               np.asarray([], dtype=np.int64))
        assert sf.size == order.size == 0


def assert_is_the_stable_lexicographic_sort(first, second):
    """``order`` is lexsort's, and the decoded sorted column is the gather
    of ``first`` by it, dtype and all."""
    sf, order = sort_pairs(first, second)
    reference = np.lexsort((second, first))
    assert np.array_equal(order, reference)
    assert sf.dtype == first.dtype
    assert np.array_equal(sf, first[reference])
    assert order.dtype == np.intp


#: (dtype, lowest base value drawn, highest): bases far from zero on both
#: sides, so offsets from the minimum are what gets packed, not the values.
COLUMN_DTYPES = [
    (np.int64, -(2**62), 2**62),
    (np.int32, -(2**31), 2**31 - 70),
    (np.uint32, 0, 2**32 - 70),
    (np.uint64, 0, 2**64 - 70),
]


@st.composite
def pair_columns(draw):
    """Two integer columns of one length with a small pool of values each,
    so that equal pairs — where only the position orders them — are common."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in range(2):
        dtype, low, high = draw(st.sampled_from(COLUMN_DTYPES))
        base = draw(st.integers(low, high))
        offsets = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
        columns.append(np.array([base + o for o in offsets], dtype=dtype))
    return columns


class TestSortPairsIsExactlyLexsort:
    """The packed-key value sort and the fallback give one and the same
    permutation: the stable sort by ``(first, second)``, ties by position."""

    @given(pair_columns())
    @settings(max_examples=300, deadline=None)
    def test_any_integer_columns(self, columns):
        assert_is_the_stable_lexicographic_sort(*columns)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.uint64])
    def test_sizes_zero_and_one(self, n, dtype):
        column = np.arange(7, 7 + n).astype(dtype)
        assert_is_the_stable_lexicographic_sort(column, column[::-1])

    @pytest.mark.parametrize("total_bits", [62, 63, 64])
    @pytest.mark.parametrize("bits_first", [1, 21, 40, 56])
    def test_both_sides_of_the_packing_guard(self, monkeypatch, total_bits, bits_first):
        """Five pairs need 3 position bits; the ranges take the rest.  Up to
        63 bits the keys are packed and no indirect sort runs; at 64 one does."""
        bits_second = total_bits - 3 - bits_first
        span1, span2 = 2**bits_first - 1, 2**bits_second - 1
        first = np.array([span1, 0, span1, 0, span1], dtype=np.int64) - 2 ** (bits_first - 1)
        second = np.array([0, span2, 0, span2, span2 // 2], dtype=np.int64) + 11
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        _, order = sort_pairs(first, second)
        assert len(calls) == (1 if total_bits > 63 else 0)
        monkeypatch.undo()
        assert order.tolist() == [1, 3, 0, 2, 4]
        assert_is_the_stable_lexicographic_sort(first, second)

    def test_non_integer_columns_take_the_fallback(self):
        first = np.array([0.5, 0.25, 0.5, 0.25])
        second = np.array([True, False, False, False])
        assert_is_the_stable_lexicographic_sort(first, second)

    def test_halfedge_array_of_a_tree(self):
        from repro.graphs import parents_to_edgelist
        from repro.graphs.generators import random_attachment_tree

        src, dst = parents_to_edgelist(
            random_attachment_tree(5000, seed=4)
        ).directed_halfedges()
        assert_is_the_stable_lexicographic_sort(src, dst)

    def test_inputs_are_not_written(self):
        first = np.array([3, 1, 3, 1], dtype=np.int64)
        second = np.array([9, 8, 7, 8], dtype=np.int64)
        before = first.copy(), second.copy()
        sort_pairs(first, second)
        assert np.array_equal(first, before[0]) and np.array_equal(second, before[1])


class TestSortKeyValue:
    def test_values_follow_keys(self):
        keys = np.asarray([3, 1, 2])
        values = np.asarray([30, 10, 20])
        sk, sv = sort_key_value(keys, values)
        assert sk.tolist() == [1, 2, 3]
        assert sv.tolist() == [10, 20, 30]

    def test_stability(self):
        keys = np.asarray([1, 1, 0])
        values = np.asarray([100, 200, 300])
        _, sv = sort_key_value(keys, values)
        assert sv.tolist() == [300, 100, 200]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            sort_key_value(np.asarray([1, 2]), np.asarray([1]))
