"""Tests for Euler tour construction (paper §2.1–2.2)."""

import numpy as np
import pytest

from repro.device import GTX980, ExecutionContext
from repro.errors import InvalidGraphError, NotATreeError
from repro.euler import (
    build_euler_tour,
    build_euler_tour_from_parents,
    tree_statistics_from_parents,
)
from repro.euler import stats as stats_module
from repro.graphs import EdgeList, parents_to_edgelist
from repro.graphs.generators import grasp_tree, random_attachment_tree
from repro.primitives import order_from_ranks

from .conftest import TREE_KINDS, make_tree


def check_tour_is_valid_euler_tour(tour, edges):
    """Structural invariants of an Euler tour of a tree."""
    h = 2 * edges.num_edges
    assert tour.length == h
    if h == 0:
        return
    # rank is a permutation and tour is its inverse.
    assert sorted(tour.rank.tolist()) == list(range(h))
    assert np.array_equal(tour.rank[tour.tour], np.arange(h))
    # The walk is continuous: consecutive tour edges share the intermediate node.
    seq = tour.tour
    srcs = tour.src[seq]
    dsts = tour.dst[seq]
    assert srcs[0] == tour.root
    assert dsts[-1] == tour.root
    assert np.array_equal(dsts[:-1], srcs[1:])
    # Every half-edge appears exactly once (it is an Euler tour of the doubled tree).
    assert np.unique(seq).size == h


class TestTourStructure:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 17, 100])
    def test_valid_tour_for_many_trees(self, kind, n):
        parents = make_tree(kind, n, seed=n)
        edges = parents_to_edgelist(parents)
        tour = build_euler_tour_from_parents(parents)
        check_tour_is_valid_euler_tour(tour, edges)

    def test_figure1_tour_is_dfs_walk(self, figure1_parents):
        tour = build_euler_tour_from_parents(figure1_parents)
        nodes = tour.nodes_in_tour_order()
        # Starts and ends at the root, visits 2(n-1)+1 nodes.
        assert nodes[0] == 0 and nodes[-1] == 0
        assert nodes.size == 11
        # Each node appears exactly degree(v) times (root: degree) in positions 1..end.
        edges = parents_to_edgelist(figure1_parents)
        counts = np.bincount(nodes[1:], minlength=6)
        assert np.array_equal(counts, edges.degrees())

    def test_single_node_tree(self):
        tour = build_euler_tour_from_parents(np.asarray([-1]))
        assert tour.length == 0
        assert tour.root == 0

    def test_rooting_at_arbitrary_node(self):
        parents = random_attachment_tree(60, seed=1, relabel=False)
        edges = parents_to_edgelist(parents)
        for root in (0, 5, 59):
            tour = build_euler_tour(edges, root)
            assert tour.root == root
            check_tour_is_valid_euler_tour(tour, edges)

    def test_list_rank_methods_agree(self):
        parents = grasp_tree(300, 8, seed=2)
        edges = parents_to_edgelist(parents)
        tours = [build_euler_tour(edges, 0, list_rank_method=m)
                 for m in ("wei-jaja", "wyllie", "sequential")]
        for other in tours[1:]:
            assert np.array_equal(tours[0].rank, other.rank)

    def test_head_leaves_the_root(self):
        parents = random_attachment_tree(40, seed=3)
        tour = build_euler_tour_from_parents(parents)
        assert tour.src[tour.head] == tour.root
        assert tour.rank[tour.head] == 0


class TestValidation:
    def test_root_out_of_range_rejected(self):
        edges = EdgeList.from_pairs([(0, 1)], n=2)
        with pytest.raises(InvalidGraphError):
            build_euler_tour(edges, 5)

    def test_disconnected_tree_rejected(self):
        # Right edge count (n-1) but disconnected: a cycle (0,1,2) plus isolated node 3.
        edges = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], n=4)
        with pytest.raises(NotATreeError):
            build_euler_tour(edges, 0)

    def test_isolated_root_rejected(self):
        edges = EdgeList.from_pairs([(0, 1), (1, 2), (0, 2)], n=4)
        with pytest.raises(NotATreeError):
            build_euler_tour(edges, 3)

    def test_single_node_with_bad_parent_rejected(self):
        with pytest.raises(NotATreeError):
            build_euler_tour_from_parents(np.asarray([3]))


class TestLazyTourArray:
    """``EulerTour.tour`` is booked at build time and scattered on first read."""

    def test_an_unread_tour_is_still_booked_after_the_list_ranking(self, gpu_ctx):
        parents = random_attachment_tree(300, seed=4)
        tour = build_euler_tour_from_parents(parents, ctx=gpu_ctx)
        assert "tour" not in vars(tour)
        *_, ranked, booked = gpu_ctx.records
        assert ranked.name == "weijaja_add_offsets"
        reference = ExecutionContext(GTX980, trace=True)
        order_from_ranks(tour.rank, ctx=reference)
        assert booked == reference.records[0]
        assert booked.threads == tour.length

    def test_the_first_read_inverts_the_ranks_once(self):
        tour = build_euler_tour_from_parents(grasp_tree(200, 5, seed=6))
        first = tour.tour
        assert np.array_equal(first, np.argsort(tour.rank))
        assert tour.tour is first

    def test_tree_statistics_never_materialize_it(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(build_euler_tour_from_parents(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(stats_module, "build_euler_tour_from_parents", spy)
        tree_statistics_from_parents(random_attachment_tree(500, seed=7))
        assert len(built) == 1 and "tour" not in vars(built[0])
