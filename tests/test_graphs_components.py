"""Tests for connected components and spanning forests."""

import numpy as np

from repro.graphs import (
    EdgeList,
    connected_components,
    count_components,
    is_connected,
    is_tree,
    largest_connected_component,
    spanning_forest,
)
from repro.graphs.generators import cycle_graph, path_graph, rmat_graph, road_graph

from .conftest import random_connected_graph


def networkx_components(edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(edges.num_nodes))
    g.add_edges_from((int(a), int(b)) for a, b in edges.edges())
    return list(nx.connected_components(g))


class TestConnectedComponents:
    def test_two_components(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3)], n=5)
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert labels[4] not in (labels[0], labels[2])
        assert count_components(g) == 3

    def test_connected_graph_single_label(self):
        g = random_connected_graph(200, 100, seed=0)
        labels = connected_components(g)
        assert np.unique(labels).size == 1
        assert is_connected(g)

    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(5, 80))
            m = int(rng.integers(0, 2 * n))
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            g = EdgeList(u, v, n)
            labels = connected_components(g)
            nx_comps = networkx_components(g)
            assert np.unique(labels).size == len(nx_comps)
            for comp in nx_comps:
                comp_labels = {int(labels[x]) for x in comp}
                assert len(comp_labels) == 1

    def test_empty_graph(self):
        g = EdgeList.from_pairs([], n=0)
        assert connected_components(g).size == 0
        assert count_components(g) == 0

    def test_self_loops_ignored(self):
        g = EdgeList.from_pairs([(0, 0), (1, 2)], n=3)
        labels = connected_components(g)
        assert labels[1] == labels[2] != labels[0]


class TestSpanningForest:
    def test_tree_edge_count_invariant(self):
        for seed in range(6):
            g = random_connected_graph(100, 80, seed=seed)
            forest = spanning_forest(g)
            assert forest.num_components == 1
            assert int(forest.tree_edge_mask.sum()) == 99

    def test_selected_edges_form_spanning_tree(self):
        g = random_connected_graph(150, 200, seed=10)
        forest = spanning_forest(g)
        tree = EdgeList(g.u[forest.tree_edge_mask], g.v[forest.tree_edge_mask], g.num_nodes)
        assert is_tree(tree)

    def test_disconnected_graph_gives_forest(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (3, 4)], n=6)
        forest = spanning_forest(g)
        assert forest.num_components == 3  # {0,1,2}, {3,4}, {5}
        assert int(forest.tree_edge_mask.sum()) == 3
        assert forest.tree_edges.tolist() == sorted(forest.tree_edges.tolist())

    def test_parallel_edges_never_both_selected(self):
        g = EdgeList.from_pairs([(0, 1), (0, 1), (1, 2), (2, 0)], n=3)
        forest = spanning_forest(g)
        assert int(forest.tree_edge_mask.sum()) == 2
        tree = EdgeList(g.u[forest.tree_edge_mask], g.v[forest.tree_edge_mask], 3)
        assert is_tree(tree)

    def test_self_loops_never_selected(self):
        g = EdgeList.from_pairs([(0, 0), (0, 1)], n=2)
        forest = spanning_forest(g)
        assert forest.tree_edge_mask.tolist() == [False, True]

    def test_structured_graphs(self):
        for g in (rmat_graph(8, 8, seed=1), road_graph(15, 20, seed=1),
                  path_graph(50), cycle_graph(50)):
            forest = spanning_forest(g)
            labels = connected_components(g)
            assert forest.num_components == np.unique(labels).size
            assert int(forest.tree_edge_mask.sum()) == g.num_nodes - forest.num_components

    def test_empty_and_edgeless(self):
        assert spanning_forest(EdgeList.from_pairs([], n=0)).num_components == 0
        assert spanning_forest(EdgeList.from_pairs([], n=4)).num_components == 4


class TestWorklist:
    """The round loop compacts its edge arrays; round 1 reads the caller's."""

    def test_edge_arrays_are_left_alone(self):
        g = random_connected_graph(120, 90, seed=4)
        u, v = g.u.copy(), g.v.copy()
        spanning_forest(g)
        connected_components(g)
        assert np.array_equal(g.u, u) and np.array_equal(g.v, v)

    def test_forest_takes_the_smallest_index_edge_per_root(self):
        # Three parallel edges and a self-loop: the lowest index wins, the
        # self-loop never enters the worklist.
        g = EdgeList.from_pairs([(1, 1), (0, 1), (1, 0), (0, 1), (1, 2)], n=3)
        forest = spanning_forest(g)
        assert forest.tree_edge_mask.tolist() == [False, True, False, False, True]
        assert forest.labels.tolist() == [0, 0, 0]

    def test_only_self_loops_charge_one_gather(self, gpu_ctx):
        g = EdgeList.from_pairs([(0, 0), (2, 2)], n=3)
        forest = spanning_forest(g, ctx=gpu_ctx)
        assert forest.num_components == 3 and not forest.tree_edge_mask.any()
        assert [(r.name, r.threads) for r in gpu_ctx.records] == [("sf_gather_labels", 2)]


class TestLargestComponent:
    def test_extracts_biggest(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (3, 4)], n=6)
        sub, old_ids = largest_connected_component(g)
        assert sub.num_nodes == 3
        assert sorted(old_ids.tolist()) == [0, 1, 2]
        assert sub.num_edges == 2

    def test_connected_graph_unchanged_in_size(self):
        g = random_connected_graph(50, 20, seed=2)
        sub, old_ids = largest_connected_component(g)
        assert sub.num_nodes == 50
        assert sub.num_edges == g.num_edges
        assert old_ids.tolist() == list(range(50))

    def test_result_is_connected(self):
        g = rmat_graph(9, 4, seed=5)
        sub, _ = largest_connected_component(g)
        assert is_connected(sub)
