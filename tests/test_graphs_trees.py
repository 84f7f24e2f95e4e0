"""Tests for parent-array tree utilities."""

import numpy as np
import pytest

from repro.errors import InvalidGraphError, NotATreeError
from repro.euler import build_euler_tour, compute_tree_stats, tree_statistics_from_parents
from repro.graphs import (
    EdgeList,
    brute_force_lca,
    depths_from_parents,
    generate_random_queries,
    parents_to_edgelist,
    random_relabel_tree,
    relabel_tree,
    tree_root,
    validate_parents,
)
from repro.boundary import parent_ids


class TestValidation:
    def test_valid_tree(self, figure1_parents):
        assert validate_parents(figure1_parents) == 0

    def test_single_node(self):
        assert validate_parents(np.asarray([-1])) == 0

    def test_no_root_rejected(self):
        with pytest.raises(NotATreeError):
            validate_parents(np.asarray([1, 0]))

    def test_two_roots_rejected(self):
        with pytest.raises(NotATreeError):
            validate_parents(np.asarray([-1, -1]))

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            validate_parents(np.asarray([-1, 2, 3, 1]))

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(NotATreeError):
            validate_parents(np.asarray([-1, 9]))

    def test_empty_rejected(self):
        with pytest.raises(NotATreeError):
            validate_parents(np.asarray([], dtype=np.int64))

    def test_tree_root(self, figure1_parents):
        assert tree_root(figure1_parents) == 0


#: Parent arrays a cast to ``int64`` would silently turn into ``[-1, 0, 1]``
#: (or, for the 2-D one, let through to an ``IndexError`` further down).
NOT_PARENT_ARRAYS = {
    "float": np.array([-1, 0.9, 1.2]),
    "float, whole values": np.array([-1.0, 0.0, 1.0]),
    "bool": np.array([False, True, True]),
    "object": np.array([-1, 0, 1], dtype=object),
    "str": np.array(["-1", "0", "1"]),
    "2-D": np.array([[-1, 0, 1]]),
    "0-D": np.array(-1),
}


class TestAsParentArray:
    @pytest.mark.parametrize("case", sorted(NOT_PARENT_ARRAYS))
    @pytest.mark.parametrize(
        "entry", [parent_ids, tree_root, validate_parents, parents_to_edgelist]
    )
    def test_refused_not_cast(self, entry, case):
        with pytest.raises(NotATreeError, match="integers|1-D"):
            entry(NOT_PARENT_ARRAYS[case])

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32]
    )
    def test_integer_dtypes_become_int64(self, dtype):
        parents = np.array([1, 1, 0], dtype=dtype)
        out = parent_ids(parents)
        assert out.dtype == np.int64 and out.tolist() == [1, 1, 0]

    def test_int64_passes_through_uncopied_and_lists_work(self):
        parents = np.array([-1, 0, 1])
        assert parent_ids(parents) is parents
        assert parent_ids([-1, 0, 1]).tolist() == [-1, 0, 1]
        assert validate_parents([-1, 0, 1]) == 0

    def test_empty_is_left_to_the_callers_own_check(self):
        assert parent_ids([]).size == 0
        with pytest.raises(NotATreeError, match="at least one node"):
            validate_parents([])


class TestConversions:
    def test_parents_to_edgelist(self, figure1_parents):
        edges = parents_to_edgelist(figure1_parents)
        assert edges.num_nodes == 6
        assert edges.num_edges == 5
        undirected = {(min(a, b), max(a, b)) for a, b in edges.edges()}
        assert undirected == {(0, 2), (0, 3), (0, 4), (1, 2), (2, 5)}

    # An edge list is rooted by the Euler pipeline: the tour at ``root``,
    # then the parent of every node from its stats.
    def test_edgelist_to_parents_roundtrip(self, figure1_parents):
        edges = parents_to_edgelist(figure1_parents)
        back = compute_tree_stats(build_euler_tour(edges, 0)).parent
        assert np.array_equal(back, figure1_parents)

    def test_edgelist_to_parents_other_root(self, figure1_parents):
        edges = parents_to_edgelist(figure1_parents)
        reparented = compute_tree_stats(build_euler_tour(edges, 5)).parent
        assert reparented[5] == -1
        assert validate_parents(reparented) == 5

    def test_edgelist_to_parents_wrong_edge_count_rejected(self):
        edges = EdgeList.from_pairs([(0, 1), (1, 2), (0, 2)], n=3)
        with pytest.raises(NotATreeError):
            build_euler_tour(edges, 0)

    def test_edgelist_to_parents_disconnected_rejected(self):
        edges = EdgeList.from_pairs([(0, 1), (0, 1)], n=3)
        with pytest.raises(NotATreeError):
            build_euler_tour(edges, 0)

    def test_edgelist_to_parents_bad_root_rejected(self):
        edges = EdgeList.from_pairs([(0, 1)], n=2)
        with pytest.raises(InvalidGraphError):
            build_euler_tour(edges, 7)


class TestStatistics:
    def test_depths_figure1(self, figure1_parents):
        assert depths_from_parents(figure1_parents).tolist() == [0, 2, 1, 1, 1, 2]

    def test_sizes_figure1(self, figure1_parents):
        sizes = tree_statistics_from_parents(figure1_parents).subtree_size
        assert sizes.tolist() == [6, 1, 3, 1, 1, 1]

    def test_path_depths(self):
        parents = np.asarray([-1, 0, 1, 2])
        assert depths_from_parents(parents).tolist() == [0, 1, 2, 3]

    def test_star_sizes(self):
        parents = np.asarray([-1, 0, 0, 0])
        sizes = tree_statistics_from_parents(parents).subtree_size
        assert sizes.tolist() == [4, 1, 1, 1]


class TestRelabeling:
    def test_relabel_preserves_structure(self, figure1_parents):
        perm = np.asarray([3, 4, 5, 0, 1, 2])
        relabeled = relabel_tree(figure1_parents, perm)
        assert validate_parents(relabeled) == 3
        # depths are preserved under relabeling (as a multiset and pointwise
        # through the permutation)
        orig = depths_from_parents(figure1_parents)
        new = depths_from_parents(relabeled)
        assert np.array_equal(new[perm], orig)

    def test_random_relabel_is_bijection(self, figure1_parents):
        relabeled, perm = random_relabel_tree(figure1_parents, seed=3)
        assert sorted(perm.tolist()) == list(range(6))
        validate_parents(relabeled)

    def test_relabel_requires_bijection(self, figure1_parents):
        with pytest.raises(InvalidGraphError):
            relabel_tree(figure1_parents, np.zeros(6, dtype=np.int64))


class TestBruteForceLCA:
    def test_figure1_queries(self, figure1_parents):
        assert brute_force_lca(figure1_parents, 1, 5) == 2
        assert brute_force_lca(figure1_parents, 1, 3) == 0
        assert brute_force_lca(figure1_parents, 3, 4) == 0
        assert brute_force_lca(figure1_parents, 2, 5) == 2
        assert brute_force_lca(figure1_parents, 0, 5) == 0
        assert brute_force_lca(figure1_parents, 4, 4) == 4

    def test_out_of_range_rejected(self, figure1_parents):
        with pytest.raises(InvalidGraphError):
            brute_force_lca(figure1_parents, 0, 99)


class TestQueryGeneration:
    def test_shapes_and_ranges(self):
        xs, ys = generate_random_queries(100, 500, seed=1)
        assert xs.shape == ys.shape == (500,)
        assert xs.min() >= 0 and xs.max() < 100
        assert ys.min() >= 0 and ys.max() < 100

    def test_deterministic_given_seed(self):
        a = generate_random_queries(50, 10, seed=7)
        b = generate_random_queries(50, 10, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_nodes_rejected(self):
        with pytest.raises(InvalidGraphError):
            generate_random_queries(0, 10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_random_queries(10, -1)
