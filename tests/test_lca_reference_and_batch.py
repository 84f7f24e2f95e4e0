"""Tests for the LCA oracles and the online batched-query driver."""

import numpy as np
import pytest

from repro.device import GTX980, XEON_X5650_SINGLE
from repro.errors import InvalidQueryError
from repro.graphs import generate_random_queries
from repro.lca import (
    BinaryLiftingLCA,
    InlabelLCA,
    SequentialInlabelLCA,
    brute_force_lca_batch,
    run_batched_queries,
)

from .conftest import TREE_KINDS, make_tree


class TestBinaryLifting:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 90])
    def test_against_brute_force(self, kind, n):
        parents = make_tree(kind, n, seed=n + 71)
        xs, ys = generate_random_queries(n, 60, seed=n)
        expected = brute_force_lca_batch(parents, xs, ys)
        assert np.array_equal(BinaryLiftingLCA(parents).query(xs, ys), expected)

    def test_out_of_range_rejected(self, figure1_parents):
        with pytest.raises(InvalidQueryError):
            BinaryLiftingLCA(figure1_parents).query(np.asarray([9]), np.asarray([0]))

    def test_empty_batch(self, figure1_parents):
        oracle = BinaryLiftingLCA(figure1_parents)
        assert oracle.query(np.asarray([], dtype=np.int64),
                            np.asarray([], dtype=np.int64)).size == 0


class TestBatchedQueries:
    def test_answers_identical_across_batch_sizes(self):
        n = 2000
        parents = make_tree("shallow", n, seed=80)
        xs, ys = generate_random_queries(n, 1000, seed=81)
        algo = InlabelLCA(parents)
        full = run_batched_queries(algo, xs, ys, 1000, GTX980)
        small = run_batched_queries(algo, xs, ys, 37, GTX980)
        assert np.array_equal(full.answers, small.answers)
        assert np.array_equal(full.answers, BinaryLiftingLCA(parents).query(xs, ys))

    def test_gpu_throughput_increases_with_batch_size(self):
        """The Figure 6 effect: per-batch launch overhead makes tiny batches slow."""
        n = 2000
        parents = make_tree("shallow", n, seed=82)
        xs, ys = generate_random_queries(n, 2000, seed=83)
        algo = InlabelLCA(parents)
        tiny = run_batched_queries(algo, xs, ys, 1, GTX980, keep_answers=False,
                                   max_batches=64)
        bulk = run_batched_queries(algo, xs, ys, 2000, GTX980, keep_answers=False)
        assert bulk.queries_per_second > 50 * tiny.queries_per_second

    def test_cpu_throughput_insensitive_to_batch_size(self):
        """Single-core CPU gains almost nothing from batching (Figure 6)."""
        n = 2000
        parents = make_tree("shallow", n, seed=84)
        xs, ys = generate_random_queries(n, 2000, seed=85)
        algo = SequentialInlabelLCA(parents)
        tiny = run_batched_queries(algo, xs, ys, 1, XEON_X5650_SINGLE,
                                   keep_answers=False, max_batches=256)
        bulk = run_batched_queries(algo, xs, ys, 2000, XEON_X5650_SINGLE,
                                   keep_answers=False)
        assert bulk.queries_per_second < 3 * tiny.queries_per_second

    def test_extrapolation_counts_all_batches(self):
        n = 500
        parents = make_tree("shallow", n, seed=86)
        xs, ys = generate_random_queries(n, 500, seed=87)
        algo = InlabelLCA(parents)
        limited = run_batched_queries(algo, xs, ys, 1, GTX980, keep_answers=False,
                                      max_batches=10)
        assert limited.num_batches == 500
        full = run_batched_queries(algo, xs, ys, 1, GTX980, keep_answers=False)
        assert limited.modeled_time_s == pytest.approx(full.modeled_time_s, rel=0.05)

    def test_invalid_batch_size_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(ValueError):
            run_batched_queries(algo, np.asarray([0]), np.asarray([1]), 0, GTX980)

    def test_mismatched_queries_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(ValueError):
            run_batched_queries(algo, np.asarray([0, 1]), np.asarray([1]), 1, GTX980)

    @pytest.mark.parametrize("dedup", [False, True])
    def test_nd_stream_rejected_before_a_batch_is_charged(self, figure1_parents, dedup):
        """Was: NumPy's "could not broadcast ... (2,3) into shape (4,)" mid-run."""

        class Spy(InlabelLCA):
            calls = 0

            def query(self, xs, ys, *, ctx=None):
                Spy.calls += 1
                return super().query(xs, ys, ctx=ctx)

        algo = Spy(figure1_parents)
        block = np.arange(6).reshape(2, 3)
        for xs, ys in [(block, block), (block.T, block.T), (block[None], block[None])]:
            with pytest.raises(InvalidQueryError, match="scalars or 1-D"):
                run_batched_queries(algo, xs, ys, 4, GTX980, dedup=dedup)
        assert Spy.calls == 0
        # The shape mismatch is still the ValueError it was; 0-d is one query.
        with pytest.raises(ValueError, match="same shape"):
            run_batched_queries(algo, block[0], block[0, :2], 4, GTX980, dedup=dedup)
        assert run_batched_queries(algo, 3, 4, 4, GTX980, dedup=dedup).num_queries == 1

    def test_empty_stream(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        result = run_batched_queries(algo, np.asarray([], dtype=np.int64),
                                     np.asarray([], dtype=np.int64), 10, GTX980)
        assert result.num_queries == 0
        assert result.modeled_time_s == 0
