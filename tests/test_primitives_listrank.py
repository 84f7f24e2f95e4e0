"""Tests for list-ranking algorithms (Wyllie, Wei–JaJa, sequential)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidGraphError, NotATreeError
from repro.euler import build_euler_tour_from_parents
from repro.primitives import (
    list_rank,
    listrank,
    order_from_ranks,
    sequential_rank,
    wei_jaja_rank,
    wyllie_rank,
)

ALGORITHMS = [sequential_rank, wyllie_rank, wei_jaja_rank]


def make_list(n: int, seed: int):
    """Random linked list over n elements; returns (succ, head, expected_rank)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[perm[:-1]] = perm[1:]
    expected = np.empty(n, dtype=np.int64)
    expected[perm] = np.arange(n)
    return succ, int(perm[0]), expected


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 1000])
    def test_random_lists(self, algorithm, n):
        succ, head, expected = make_list(n, seed=n)
        assert np.array_equal(algorithm(succ, head), expected)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identity_list(self, algorithm):
        # 0 -> 1 -> 2 -> ... -> n-1
        n = 50
        succ = np.arange(1, n + 1, dtype=np.int64)
        succ[-1] = -1
        assert np.array_equal(algorithm(succ, 0), np.arange(n))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_reversed_list(self, algorithm):
        n = 50
        succ = np.arange(-1, n - 1, dtype=np.int64)
        assert np.array_equal(algorithm(succ, n - 1), np.arange(n)[::-1])

    def test_wei_jaja_matches_wyllie_on_many_seeds(self):
        for seed in range(10):
            succ, head, _ = make_list(257, seed=seed)
            assert np.array_equal(wei_jaja_rank(succ, head, seed=seed),
                                  wyllie_rank(succ, head))

    @pytest.mark.parametrize("splitters", [1, 2, 5, 64, 300])
    def test_wei_jaja_any_splitter_count(self, splitters):
        succ, head, expected = make_list(300, seed=3)
        out = wei_jaja_rank(succ, head, num_splitters=splitters)
        assert np.array_equal(out, expected)


class TestValidation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_list_rejected(self, algorithm):
        with pytest.raises(InvalidGraphError):
            algorithm(np.asarray([], dtype=np.int64), 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_head_out_of_range_rejected(self, algorithm):
        with pytest.raises(InvalidGraphError):
            algorithm(np.asarray([-1]), 5)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bad_successor_rejected(self, algorithm):
        with pytest.raises(InvalidGraphError):
            algorithm(np.asarray([7]), 0)

    @pytest.mark.parametrize("algorithm", [sequential_rank, wei_jaja_rank])
    def test_unreachable_elements_detected(self, algorithm):
        # Two disjoint lists: 0 -> 1, 2 -> 3; ranking from 0 must fail.
        succ = np.asarray([1, -1, 3, -1], dtype=np.int64)
        with pytest.raises(InvalidGraphError):
            algorithm(succ, 0)

    def test_wei_jaja_refuses_a_list_whose_words_overflow(self, monkeypatch):
        # 20 elements: local ranks take (20 + 1).bit_length() = 5 bits and 20
        # sublist ids 5 more, so a 9-bit word is one short and 10 fit.
        succ, head, expected = make_list(20, seed=8)
        monkeypatch.setattr(listrank, "_WORD_BITS", 10)
        assert np.array_equal(wei_jaja_rank(succ, head, num_splitters=20), expected)
        monkeypatch.setattr(listrank, "_WORD_BITS", 9)

        def no_allocation(*args, **kwargs):
            raise AssertionError("the walk started before the refusal")

        monkeypatch.setattr(np.random, "default_rng", no_allocation)
        with pytest.raises(InvalidGraphError, match="overflow"):
            wei_jaja_rank(succ, head, num_splitters=20)

    def test_cycle_detected_sequential(self):
        succ = np.asarray([1, 2, 0], dtype=np.int64)
        with pytest.raises(InvalidGraphError):
            sequential_rank(succ, 0)


#: name -> (succ, head): inputs a cast would have truncated into some list.
NOT_INTEGER_LISTS = {
    "float successors": (np.array([1.7, 2.2, -1.0]), 0),
    "float head": (np.array([1, -1]), 0.0),
    "numpy float head": (np.array([1, -1]), np.float64(0)),
    "bool successors": (np.array([True, False]), 0),
    "bool head": (np.array([1, -1]), True),
    "2-D successors": (np.array([[1, -1]]), 0),
    "object successors": (np.array([1, None], dtype=object), 0),
}


class TestRefusedNotTruncated:
    """One dtype and shape test refuses what a cast used to rank."""

    @pytest.mark.parametrize("method", ["wei-jaja", "wyllie", "sequential"])
    @pytest.mark.parametrize("case", sorted(NOT_INTEGER_LISTS))
    def test_every_method(self, case, method):
        succ, head = NOT_INTEGER_LISTS[case]
        with pytest.raises(InvalidGraphError, match="integer|1-D"):
            list_rank(succ, head, method=method)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_integers_of_any_width_pass(self, algorithm, dtype):
        # Signed only: an unsigned array cannot hold the -1 that ends a list.
        succ, head, expected = make_list(60, seed=4)
        assert np.array_equal(algorithm(succ.astype(dtype), np.int32(head)), expected)
        assert np.array_equal(algorithm(succ.tolist(), head), expected)


class TestWeiJajaEqualsSequential:
    """Any splitter count, any seed: the ranks are the sequential walk's."""

    @given(
        n=st.integers(1, 300),
        list_seed=st.integers(0, 2**32 - 1),
        splitters=st.sampled_from(["one", "two", "default", "all"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_permutation_lists(self, n, list_seed, splitters, seed):
        succ, head, expected = make_list(n, seed=list_seed)
        s = {"one": 1, "two": 2, "default": n // 64, "all": n}[splitters]
        out = wei_jaja_rank(succ, head, num_splitters=s, seed=seed)
        assert np.array_equal(out, sequential_rank(succ, head))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("splitters", [1, 2, 70000 // 64, 70000])
    def test_long_list(self, splitters):
        succ, head, expected = make_list(70000, seed=11)
        out = wei_jaja_rank(succ, head, num_splitters=splitters, seed=3)
        assert np.array_equal(out, expected)

    def test_charged_work_is_the_list_not_the_rounds(self, gpu_ctx):
        """One hop per element, however many host rounds the walk takes."""
        succ, head, _ = make_list(5000, seed=2)
        for splitters in (1, 7, 5000):
            gpu_ctx.reset()
            wei_jaja_rank(succ, head, num_splitters=splitters, ctx=gpu_ctx)
            walk, = (r for r in gpu_ctx.records if r.name == "weijaja_sublist_walk")
            assert walk.ops == 3.0 * 5000 and walk.launches == 1


#: name -> (succ, head): lists no ranking may accept.  ``all`` / ``one``
#: splitters put a splitter on every element / on the head alone, so a cycle
#: is met both with a splitter inside it and without.
MALFORMED_LISTS = {
    "two tails": ([1, -1, 3, -1], 0),
    "two tails, second one first": ([-1, 2, -1], 1),
    "cycle behind the head": ([1, 2, 3, 1, 5, -1], 0),
    "cycle through the head": ([1, 2, 0, -1], 0),
    "self-loop": ([1, 1, -1], 0),
    "self-loop at the head": ([0, -1], 0),
    "two elements share a successor": ([2, 2, -1], 0),
    "head below range": ([1, -1], -1),
    "head above range": ([1, -1], 2),
    "successor below -1": ([1, -2], 0),
    "successor at n": ([1, 2], 0),
    # Walks that end at a splitter or at the tail learn the sublist they
    # reach by searching the splitters; none of these may slip past that.
    "two predecessors off the head's chain": ([1, 2, -1, 2], 0),
    "cycle off the head's chain": ([1, -1, 3, 4, 2], 0),
    "unreachable tail": ([1, 0, -1], 0),
}


@pytest.mark.usefixtures("hang_guard")
class TestMalformedListsRaise:
    @pytest.mark.parametrize("splitters", [1, 2, None, "all"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_LISTS))
    def test_wei_jaja(self, case, splitters):
        succ, head = MALFORMED_LISTS[case]
        succ = np.asarray(succ, dtype=np.int64)
        s = succ.size if splitters == "all" else splitters
        for seed in range(4):
            with pytest.raises(InvalidGraphError):
                wei_jaja_rank(succ, head, num_splitters=s, seed=seed)
        with pytest.raises(InvalidGraphError):
            list_rank(succ, head)

    def test_long_cycle_is_refused_within_the_budget(self):
        n = 20000
        succ = np.arange(1, n + 1, dtype=np.int64)
        succ[-1] = n // 2
        for splitters in (1, None, n):
            with pytest.raises(InvalidGraphError):
                wei_jaja_rank(succ, 0, num_splitters=splitters)

    @pytest.mark.parametrize(
        "parents", [[-1, 0, 3, 4, 2], [-1, 0, 1, 5, 3, 4], [-1, 2, 1]]
    )
    def test_forest_plus_cycle_is_not_a_tree(self, parents):
        with pytest.raises(NotATreeError):
            build_euler_tour_from_parents(np.asarray(parents))


class TestDispatcher:
    def test_method_names(self):
        succ, head, expected = make_list(40, seed=9)
        for method in ("wei-jaja", "weijaja", "wyllie", "sequential", "WEI_JAJA"):
            assert np.array_equal(list_rank(succ, head, method=method), expected)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            list_rank(np.asarray([-1]), 0, method="quantum")


class TestCostAccounting:
    def test_wyllie_charges_log_rounds(self, gpu_ctx):
        succ, head, _ = make_list(1024, seed=0)
        wyllie_rank(succ, head, ctx=gpu_ctx)
        # Wyllie needs ~log2(n) rounds of kernels.
        assert 8 <= gpu_ctx.total_launches <= 16

    def test_wei_jaja_charges_fewer_launches_than_wyllie(self):
        from repro.device import ExecutionContext, GTX980

        succ, head, _ = make_list(4096, seed=1)
        wy = ExecutionContext(GTX980)
        wyllie_rank(succ, head, ctx=wy)
        wj = ExecutionContext(GTX980)
        wei_jaja_rank(succ, head, ctx=wj)
        assert wj.total_launches < wy.total_launches
        # Wei-JaJa is work-optimal: fewer total operations than Wyllie's n log n.
        assert wj.total_ops < wy.total_ops


class TestOrderFromRanks:
    def test_inverse_permutation(self):
        ranks = np.asarray([2, 0, 1])
        assert order_from_ranks(ranks).tolist() == [1, 2, 0]

    def test_roundtrip_with_rank(self):
        succ, head, expected = make_list(128, seed=5)
        ranks = wei_jaja_rank(succ, head)
        order = order_from_ranks(ranks)
        assert np.array_equal(ranks[order], np.arange(128))
        assert np.array_equal(order[expected], np.arange(128))
