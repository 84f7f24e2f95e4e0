"""Tests for the sequential DFS bridge-finding baseline."""

import numpy as np
import pytest

from repro.bridges import find_bridges_dfs, find_bridges_networkx
from repro.graphs import EdgeList
from repro.graphs.generators import cycle_graph, path_graph, rmat_graph, road_graph, web_graph

from .conftest import random_connected_graph


class TestKnownGraphs:
    def test_path_all_bridges(self):
        result = find_bridges_dfs(path_graph(20))
        assert result.num_bridges == 19
        assert result.bridge_mask.all()

    def test_cycle_no_bridges(self):
        result = find_bridges_dfs(cycle_graph(20))
        assert result.num_bridges == 0

    def test_single_edge(self):
        result = find_bridges_dfs(EdgeList.from_pairs([(0, 1)], n=2))
        assert result.bridge_mask.tolist() == [True]

    def test_parallel_edge_is_not_a_bridge(self):
        g = EdgeList.from_pairs([(0, 1), (0, 1), (1, 2)], n=3)
        result = find_bridges_dfs(g)
        assert result.bridge_mask.tolist() == [False, False, True]

    def test_self_loop_is_not_a_bridge(self):
        g = EdgeList.from_pairs([(0, 0), (0, 1)], n=2)
        result = find_bridges_dfs(g)
        assert result.bridge_mask.tolist() == [False, True]

    def test_bowtie(self):
        # Two triangles joined by a single edge: only the joining edge is a bridge.
        g = EdgeList.from_pairs(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)], n=6
        )
        result = find_bridges_dfs(g)
        assert result.bridge_mask.tolist() == [False] * 6 + [True]

    def test_disconnected_graph_supported(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3), (3, 4), (4, 2)], n=5)
        result = find_bridges_dfs(g)
        assert result.bridge_mask.tolist() == [True, False, False, False]

    def test_empty_graph(self):
        result = find_bridges_dfs(EdgeList.from_pairs([], n=3))
        assert result.num_bridges == 0


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        extra = int(rng.integers(0, n))
        g = random_connected_graph(n, extra, seed)
        assert find_bridges_dfs(g).agrees_with(find_bridges_networkx(g))

    @pytest.mark.parametrize("maker", [
        lambda: rmat_graph(8, 6, seed=1),
        lambda: road_graph(15, 18, seed=2),
        lambda: web_graph(400, seed=3),
    ])
    def test_structured_graphs(self, maker):
        g = maker()
        assert find_bridges_dfs(g).agrees_with(find_bridges_networkx(g))


class TestMetadata:
    def test_result_fields(self):
        result = find_bridges_dfs(path_graph(5))
        assert result.algorithm == "Single-core CPU DFS"
        assert result.bridge_mask.tolist() == [True] * 4
        assert result.total_time_s >= 0

    def test_cost_charged(self, cpu_ctx):
        find_bridges_dfs(path_graph(200), ctx=cpu_ctx)
        assert cpu_ctx.elapsed > 0
