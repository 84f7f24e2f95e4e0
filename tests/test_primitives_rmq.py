"""Tests for range-minimum/maximum query structures."""

import numpy as np
import pytest

from repro.errors import InvalidQueryError
from repro.primitives import (
    SegmentTreeRMQ,
    SparseTableRMQ,
    build_rmq,
)

BACKENDS = [SegmentTreeRMQ, SparseTableRMQ]


def brute_force(values, lo, hi, op):
    fn = np.min if op == "min" else np.max
    return np.asarray([
        fn(values[a:b + 1]) if a <= b else None for a, b in zip(lo, hi)
    ])


class TestCorrectness:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 100, 257])
    def test_random_queries(self, backend, op, n):
        rng = np.random.default_rng(n)
        values = rng.integers(-1000, 1000, size=n)
        rmq = backend(values, op)
        q = 200
        lo = rng.integers(0, n, size=q)
        hi = rng.integers(0, n, size=q)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        expected = brute_force(values, lo, hi, op)
        got = rmq.query(lo, hi)
        assert np.array_equal(got, expected.astype(got.dtype))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_range(self, backend):
        values = np.asarray([5, -2, 9, 0])
        rmq = backend(values, "min")
        assert rmq.query(np.asarray([0]), np.asarray([3]))[0] == -2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_element_ranges(self, backend):
        values = np.asarray([3, 1, 4, 1, 5])
        rmq = backend(values, "max")
        idx = np.arange(5)
        assert np.array_equal(rmq.query(idx, idx), values)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_range_returns_identity(self, backend):
        values = np.asarray([3, 1, 4])
        rmq = backend(values, "min")
        out = rmq.query(np.asarray([2]), np.asarray([1]))
        assert out[0] == rmq.identity

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scalar_query(self, backend):
        rmq = backend(np.asarray([7, 3, 9]), "min")
        assert rmq.query(0, 2) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_values(self, backend):
        values = np.asarray([0.5, -1.5, 2.25])
        rmq = backend(values, "min")
        assert rmq.query(0, 2) == -1.5


class TestValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_input_rejected(self, backend):
        with pytest.raises(ValueError):
            backend(np.asarray([], dtype=np.int64), "min")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_op_rejected(self, backend):
        with pytest.raises(ValueError):
            backend(np.asarray([1]), "sum")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_out_of_bounds_query_rejected(self, backend):
        rmq = backend(np.asarray([1, 2, 3]), "min")
        with pytest.raises(IndexError):
            rmq.query(np.asarray([0]), np.asarray([3]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mismatched_query_shapes_rejected(self, backend):
        rmq = backend(np.asarray([1, 2, 3]), "min")
        with pytest.raises(ValueError):
            rmq.query(np.asarray([0, 1]), np.asarray([1]))


class TestQueryBoundary:
    """2-D bounds used to escape as NumPy's raw ``IndexError``; float bounds
    were truncated (``query([0.9], [2.9])`` answered ``[0, 2]``)."""

    VALUES = np.asarray([5, -2, 9, 0])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "bad",
        [np.asarray([0.9]), np.asarray([1.0]), 0.9, np.asarray([True]), True,
         np.asarray([1], dtype=object), np.asarray(["1"]), None],
        ids=repr,
    )
    def test_non_integer_bounds_are_refused_not_truncated(self, backend, bad, gpu_ctx):
        rmq = backend(self.VALUES, "min")
        good = np.asarray([2]) if np.ndim(bad) else 2
        for lo, hi in [(bad, good), (good, bad)]:
            with pytest.raises(InvalidQueryError, match="must be integers"):
                rmq.query(lo, hi, ctx=gpu_ctx)
        assert gpu_ctx.records == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_than_one_dimension_is_refused(self, backend, gpu_ctx):
        rmq = backend(self.VALUES, "min")
        square = np.zeros((2, 2), dtype=np.int64)
        for lo, hi in [(square, square), (square, np.zeros(4, dtype=np.int64))]:
            with pytest.raises(InvalidQueryError, match="scalars or 1-D"):
                rmq.query(lo, hi, ctx=gpu_ctx)
        assert gpu_ctx.records == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_forms_still_answer(self, backend):
        rmq = backend(self.VALUES, "max")
        assert rmq.query([0, 1], np.asarray([1, 3], dtype=np.int16)).tolist() == [5, 9]
        assert rmq.query(np.int32(1), 2) == 9
        for empty in ([], np.empty(0), np.empty(0, dtype=np.int64)):
            assert rmq.query(empty, empty).shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_ranges_may_lie_anywhere(self, backend):
        rmq = backend(self.VALUES, "min")
        out = rmq.query(np.asarray([99, 0, -5]), np.asarray([-7, 3, -6]))
        assert out.tolist() == [rmq.identity, -2, rmq.identity]
        with pytest.raises(IndexError, match="out of bounds"):
            rmq.query(np.asarray([99, -1]), np.asarray([-7, 3]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_leaves_its_arguments_alone(self, backend):
        rmq = backend(np.arange(37), "min")
        lo, hi = np.asarray([3, 0, 20]), np.asarray([30, 36, 20])
        rmq.query(lo, hi)
        assert lo.tolist() == [3, 0, 20] and hi.tolist() == [30, 36, 20]


class TestBuildRmq:
    def test_backend_dispatch(self):
        values = np.asarray([1, 2, 3])
        assert isinstance(build_rmq(values, backend="segment-tree"), SegmentTreeRMQ)
        assert isinstance(build_rmq(values, backend="sparse-table"), SparseTableRMQ)
        assert isinstance(build_rmq(values, backend="segtree"), SegmentTreeRMQ)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            build_rmq(np.asarray([1]), backend="fenwick")


class TestSubtreeHelper:
    def test_range_minmax_over_subtrees(self):
        values = np.asarray([4, 7, 1, 9, 3])
        starts = np.asarray([0, 2])
        ends = np.asarray([4, 3])
        lows = build_rmq(values, "min").query(starts, ends)
        highs = build_rmq(values, "max").query(starts, ends)
        assert lows.tolist() == [1, 1]
        assert highs.tolist() == [9, 9]


class TestCostAccounting:
    def test_build_batches_small_levels_into_one_launch(self, gpu_ctx):
        # All levels of a 1024-leaf tree are below the small-level threshold,
        # so the whole build is a single cleanup kernel.
        SegmentTreeRMQ(np.arange(1024), "min", ctx=gpu_ctx)
        assert gpu_ctx.total_launches == 1

    def test_build_charges_one_launch_per_large_level(self):
        from repro.device import ExecutionContext, GTX980

        ctx = ExecutionContext(GTX980)
        SegmentTreeRMQ(np.arange(1 << 14), "min", ctx=ctx)
        # Levels of size 8192 and 4096 get their own launches; the rest share one.
        assert ctx.total_launches == 3

    def test_sparse_table_uses_more_memory_but_single_query_round(self, gpu_ctx):
        values = np.arange(1 << 12)
        table = SparseTableRMQ(values, "min")
        tree = SegmentTreeRMQ(values, "min")
        assert table.table.nbytes > tree.tree.nbytes
        table.query(np.asarray([0]), np.asarray([100]), ctx=gpu_ctx)
        assert gpu_ctx.total_launches == 1
