"""Tests for BFS (GPU-style level-synchronous and sequential)."""

import numpy as np
import pytest

from repro.device import ExecutionContext, GTX980
from repro.errors import InvalidGraphError
from repro.graphs import CSRGraph, EdgeList, bfs_cpu, bfs_gpu
from repro.graphs.generators import grid_graph, path_graph, rmat_graph

from .conftest import random_connected_graph


def networkx_levels(edges, source):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(edges.num_nodes))
    g.add_edges_from((int(a), int(b)) for a, b in edges.edges())
    lengths = nx.single_source_shortest_path_length(g, source)
    out = np.full(edges.num_nodes, -1, dtype=np.int64)
    for node, dist in lengths.items():
        out[node] = dist
    return out


class TestCorrectness:
    @pytest.mark.parametrize("variant", [bfs_gpu, bfs_cpu])
    def test_levels_match_networkx(self, variant):
        for seed in range(5):
            g = random_connected_graph(80, 60, seed=seed)
            csr = CSRGraph.from_edgelist(g)
            result = variant(csr, 0)
            assert np.array_equal(result.levels, networkx_levels(g, 0))

    @pytest.mark.parametrize("variant", [bfs_gpu, bfs_cpu])
    def test_parents_consistent_with_levels(self, variant):
        g = random_connected_graph(120, 90, seed=7)
        csr = CSRGraph.from_edgelist(g)
        result = variant(csr, 3)
        edges = set(g.edges()) | {(b, a) for a, b in g.edges()}
        for node in range(csr.num_nodes):
            if node == 3:
                assert result.parents[node] == -1
            else:
                parent = result.parents[node]
                assert result.levels[node] == result.levels[parent] + 1
                assert (node, parent) in edges

    @pytest.mark.parametrize("variant", [bfs_gpu, bfs_cpu])
    def test_tree_edges_form_bfs_tree(self, variant):
        from repro.graphs import is_tree

        g = random_connected_graph(60, 40, seed=8)
        csr = CSRGraph.from_edgelist(g)
        result = variant(csr, 0)
        mask = result.tree_edge_mask(g.num_edges)
        assert int(mask.sum()) == g.num_nodes - 1
        tree = EdgeList(g.u[mask], g.v[mask], g.num_nodes)
        assert is_tree(tree)

    def test_gpu_and_cpu_agree(self):
        g = rmat_graph(8, 6, seed=2)
        csr = CSRGraph.from_edgelist(g)
        a = bfs_gpu(csr, 0)
        b = bfs_cpu(csr, 0)
        assert np.array_equal(a.levels, b.levels)

    def test_disconnected_leaves_unreached(self):
        g = EdgeList.from_pairs([(0, 1)], n=4)
        csr = CSRGraph.from_edgelist(g)
        result = bfs_gpu(csr, 0)
        assert result.levels.tolist() == [0, 1, -1, -1]
        assert result.reached.tolist() == [True, True, False, False]

    def test_path_graph_levels(self):
        csr = CSRGraph.from_edgelist(path_graph(50))
        result = bfs_gpu(csr, 0)
        assert np.array_equal(result.levels, np.arange(50))
        assert result.num_levels == 50

    def test_source_out_of_range_rejected(self):
        csr = CSRGraph.from_edgelist(path_graph(5))
        with pytest.raises(InvalidGraphError):
            bfs_gpu(csr, 10)
        with pytest.raises(InvalidGraphError):
            bfs_cpu(csr, -1)



class TestCostModel:
    def test_diameter_sensitivity(self):
        """Per-level launches make the long path far more expensive per edge
        than the square grid of the same size — the effect behind the paper's
        CK-vs-TV road-graph results."""
        n = 2500
        path_csr = CSRGraph.from_edgelist(path_graph(n))
        grid_csr = CSRGraph.from_edgelist(grid_graph(50, 50))
        path_ctx = ExecutionContext(GTX980)
        bfs_gpu(path_csr, 0, ctx=path_ctx)
        grid_ctx = ExecutionContext(GTX980)
        bfs_gpu(grid_csr, 0, ctx=grid_ctx)
        assert path_ctx.elapsed > 5 * grid_ctx.elapsed
