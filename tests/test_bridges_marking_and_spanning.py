"""Tests for the shared marking walk and spanning-tree glue."""

import numpy as np
import pytest

from repro.bridges import TreeEdgeView, child_endpoints, mark_cycle_edges, split_tree_edges
from repro.errors import InvalidGraphError, NotATreeError
from repro.graphs import EdgeList, depths_from_parents, parents_to_edgelist
from repro.graphs.generators import random_attachment_tree


class TestMarkCycleEdges:
    def test_no_nontree_edges_marks_nothing(self, figure1_parents):
        levels = depths_from_parents(figure1_parents)
        marked = mark_cycle_edges(figure1_parents, levels,
                                  np.asarray([], dtype=np.int64),
                                  np.asarray([], dtype=np.int64))
        assert not marked.any()

    def test_marks_exactly_the_cycle_path(self, figure1_parents):
        # Non-tree edge {1, 5}: both are children of 2, so exactly the tree
        # edges (1,2) and (5,2) lie on the cycle.
        levels = depths_from_parents(figure1_parents)
        marked = mark_cycle_edges(figure1_parents, levels,
                                  np.asarray([1]), np.asarray([5]))
        assert marked.tolist() == [False, True, False, False, False, True]

    def test_ancestor_descendant_cycle(self, figure1_parents):
        # Non-tree edge {0, 5} closes the cycle through nodes 5, 2, 0:
        # marks tree edges (5,2) and (2,0).
        levels = depths_from_parents(figure1_parents)
        marked = mark_cycle_edges(figure1_parents, levels,
                                  np.asarray([0]), np.asarray([5]))
        assert marked.tolist() == [False, False, True, False, False, True]

    def test_self_loop_marks_nothing(self, figure1_parents):
        levels = depths_from_parents(figure1_parents)
        marked = mark_cycle_edges(figure1_parents, levels,
                                  np.asarray([3]), np.asarray([3]))
        assert not marked.any()

    def test_root_never_marked(self):
        parents = random_attachment_tree(60, seed=1, relabel=False)
        levels = depths_from_parents(parents)
        rng = np.random.default_rng(2)
        u = rng.integers(0, 60, size=40)
        v = rng.integers(0, 60, size=40)
        marked = mark_cycle_edges(parents, levels, u, v)
        assert not marked[0]  # node 0 is the root of an unshuffled tree

    def test_mismatched_arrays_rejected(self, figure1_parents):
        levels = depths_from_parents(figure1_parents)
        with pytest.raises(InvalidGraphError):
            mark_cycle_edges(figure1_parents, levels, np.asarray([1]), np.asarray([1, 2]))

    def test_cost_scales_with_path_length(self, gpu_ctx):
        from repro.device import ExecutionContext, GTX980
        from repro.graphs.generators import grasp_tree

        n = 2000
        shallow = random_attachment_tree(n, seed=3, relabel=False)
        deep = grasp_tree(n, 1, seed=3, relabel=False)  # a path
        u = np.zeros(50, dtype=np.int64)
        v = np.full(50, n - 1, dtype=np.int64)
        ctx_shallow = ExecutionContext(GTX980)
        mark_cycle_edges(shallow, depths_from_parents(shallow), u, v, ctx=ctx_shallow)
        ctx_deep = ExecutionContext(GTX980)
        mark_cycle_edges(deep, depths_from_parents(deep), u, v, ctx=ctx_deep)
        assert ctx_deep.elapsed > 3 * ctx_shallow.elapsed


class TestInputsAreRefusedNotCast:
    """The marking walk and ``child_endpoints`` used to cast to ``int64``."""

    PARENTS = np.asarray([-1, 0, 0, 1])
    LEVELS = np.asarray([0, 1, 1, 2])

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "bad", [np.asarray([0.5, 1.5, 2.5, 3.5]), np.asarray([True, False, True, True])],
        ids=["float", "bool"],
    )
    def test_mark_cycle_edges(self, bad, position):
        args = [self.PARENTS, self.LEVELS, np.asarray([3, 2, 1, 2]), np.asarray([2, 1, 3, 3])]
        args[position] = bad
        with pytest.raises((InvalidGraphError, NotATreeError), match="must be integers"):
            mark_cycle_edges(*args)

    def test_child_endpoints(self):
        tree = parents_to_edgelist(self.PARENTS)
        view = split_tree_edges(tree, np.ones(tree.num_edges, dtype=bool))
        for bad in (self.PARENTS.astype(float), self.PARENTS[None, :]):
            with pytest.raises(NotATreeError, match="integers|1-D"):
                child_endpoints(view, bad)
        assert child_endpoints(view, self.PARENTS.astype(np.int16)).tolist() == [1, 2, 3]


class TestSplitTreeEdges:
    def test_split(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (0, 2)], n=3)
        mask = np.asarray([True, True, False])
        view = split_tree_edges(g, mask)
        assert isinstance(view, TreeEdgeView)
        assert view.tree_edges.num_edges == 2
        assert view.tree_edge_indices.tolist() == [0, 1]
        assert view.nontree_indices.tolist() == [2]
        assert view.nontree_u.tolist() == [0]
        assert view.nontree_v.tolist() == [2]

    def test_wrong_mask_length_rejected(self):
        g = EdgeList.from_pairs([(0, 1)], n=2)
        with pytest.raises(InvalidGraphError):
            split_tree_edges(g, np.asarray([True, False]))


class TestChildEndpoints:
    def test_child_identification(self, figure1_parents):
        from repro.graphs import parents_to_edgelist

        tree = parents_to_edgelist(figure1_parents)
        view = split_tree_edges(tree, np.ones(tree.num_edges, dtype=bool))
        children = child_endpoints(view, figure1_parents)
        # parents_to_edgelist emits (child, parent) pairs in child order.
        assert children.tolist() == view.tree_edges.u.tolist()

    def test_inconsistent_parents_rejected(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3)], n=4)
        view = split_tree_edges(g, np.ones(2, dtype=bool))
        bad_parents = np.asarray([-1, 0, -1, -1])  # edge (2,3) not oriented
        with pytest.raises(InvalidGraphError):
            child_endpoints(view, bad_parents)
