"""Tests for the synthetic dataset generators."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    depths_from_parents,
    is_tree,
    parents_to_edgelist,
    validate_parents,
)
from repro.graphs.generators import (
    INFINITE_GRASP,
    barabasi_albert_tree,
    citation_graph,
    collaboration_graph,
    cycle_graph,
    grasp_for_target_depth,
    grasp_tree,
    grid_graph,
    kron_g500,
    path_graph,
    preferential_attachment_graph,
    random_attachment_tree,
    rmat_graph,
    road_graph,
    road_graph_with_target_size,
    social_graph,
    web_graph,
)

from .conftest import TREE_KINDS, make_tree


class TestRandomTrees:
    @pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
    def test_random_attachment_is_valid_tree(self, n):
        parents = random_attachment_tree(n, seed=n)
        validate_parents(parents)

    def test_shallow_tree_depth_close_to_log(self):
        n = 20_000
        parents = random_attachment_tree(n, seed=1)
        depth = depths_from_parents(parents).mean()
        assert depth < 3 * math.log(n)

    def test_grasp_one_is_a_path(self):
        parents = grasp_tree(200, 1, seed=0, relabel=False)
        assert depths_from_parents(parents).max() == 199

    def test_grasp_controls_depth(self):
        n = 20_000
        shallow = depths_from_parents(grasp_tree(n, INFINITE_GRASP, seed=2)).mean()
        deep = depths_from_parents(grasp_tree(n, 20, seed=2)).mean()
        assert deep > 10 * shallow
        # The expected depth n / (grasp + 1) should be in the right ballpark (±3x).
        assert deep == pytest.approx(n / 21, rel=2.0)

    def test_grasp_infinite_matches_shallow_distribution(self):
        a = grasp_tree(500, INFINITE_GRASP, seed=3, relabel=False)
        b = random_attachment_tree(500, seed=3, relabel=False)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 10, 500])
    def test_barabasi_albert_is_valid_tree(self, n):
        validate_parents(barabasi_albert_tree(n, seed=n))

    def test_barabasi_albert_has_skewed_degrees(self):
        parents = barabasi_albert_tree(5000, seed=4, relabel=False)
        edges = parents_to_edgelist(parents)
        degrees = edges.degrees()
        assert degrees.max() > 20  # hubs exist
        assert (degrees == 1).sum() > 1000  # many leaves

    def test_relabel_flag_changes_ids_not_structure(self):
        raw = random_attachment_tree(300, seed=5, relabel=False)
        shuffled = random_attachment_tree(300, seed=5, relabel=True)
        assert sorted(depths_from_parents(raw).tolist()) == sorted(
            depths_from_parents(shuffled).tolist()
        )

    def test_deterministic_given_seed(self):
        assert np.array_equal(random_attachment_tree(100, seed=9),
                              random_attachment_tree(100, seed=9))

    def test_make_tree_dispatch(self):
        for kind in TREE_KINDS:
            validate_parents(make_tree(kind, 50, seed=1))
        with pytest.raises(ValueError):
            make_tree("binary", 50, seed=1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            random_attachment_tree(0)
        with pytest.raises(ConfigurationError):
            grasp_tree(10, 0)
        with pytest.raises(ConfigurationError):
            barabasi_albert_tree(-5)

    def test_grasp_for_target_depth(self):
        n = 10_000
        assert grasp_for_target_depth(n, 1.0) == INFINITE_GRASP
        gamma = grasp_for_target_depth(n, 100.0)
        assert gamma != INFINITE_GRASP
        assert n / (gamma + 1.0) == pytest.approx(100.0, rel=0.2)


class TestKronecker:
    def test_basic_shape(self):
        g = rmat_graph(8, 8, seed=0)
        assert g.num_nodes == 256
        assert 0 < g.num_edges <= 256 * 8

    def test_no_self_loops_or_duplicates_after_dedup(self):
        g = rmat_graph(7, 16, seed=1)
        assert not np.any(g.u == g.v)
        assert g.deduplicated().num_edges == g.num_edges

    def test_skewed_degree_distribution(self):
        g = rmat_graph(10, 16, seed=2)
        degrees = g.degrees()
        assert degrees.max() > 10 * max(1.0, float(np.median(degrees[degrees > 0])))

    def test_kron_g500_wrapper(self):
        g = kron_g500(7, edge_factor=4, seed=3)
        assert g.num_nodes == 128

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            rmat_graph(0)
        with pytest.raises(ConfigurationError):
            rmat_graph(5, edge_factor=0)
        with pytest.raises(ConfigurationError):
            rmat_graph(5, probs=(0.5, 0.5, 0.5, 0.5))

    def test_deterministic_given_seed(self):
        a = rmat_graph(6, 4, seed=11)
        b = rmat_graph(6, 4, seed=11)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


class TestRoadGraphs:
    def test_grid_graph_structure(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_path_and_cycle(self):
        assert is_tree(path_graph(10))
        c = cycle_graph(10)
        assert c.num_edges == 10
        with pytest.raises(ConfigurationError):
            cycle_graph(2)
        with pytest.raises(ConfigurationError):
            path_graph(0)

    def test_road_graph_is_connected_and_sparse(self):
        from repro.graphs import is_connected

        g = road_graph(20, 25, removal_fraction=0.6, subdivide_fraction=0.2, seed=1)
        assert is_connected(g)
        assert g.num_edges < 2 * g.num_nodes

    def test_road_graph_without_removal_is_the_grid(self):
        g = road_graph(5, 6, removal_fraction=0.0, subdivide_fraction=0.0,
                       seed=0, permute=False)
        assert g.num_edges == grid_graph(5, 6).num_edges

    def test_road_graph_target_size(self):
        g, (rows, cols) = road_graph_with_target_size(900, seed=2)
        assert abs(rows * cols - 900) < 300
        assert g.num_nodes >= rows * cols  # subdivision can only add nodes

    def test_dead_ends_make_the_graph_bridge_rich(self):
        """Real road networks owe most of their bridges to dead-end streets;
        the deadend_fraction knob reproduces that regime (paper Table 1)."""
        from repro.bridges import find_bridges_dfs
        from repro.graphs import is_connected

        g = road_graph(40, 40, removal_fraction=0.45, subdivide_fraction=0.1,
                       deadend_fraction=0.5, seed=4)
        assert is_connected(g)
        bridges = find_bridges_dfs(g).num_bridges
        assert bridges > 0.25 * g.num_nodes

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            road_graph(10, 10, removal_fraction=1.5)
        with pytest.raises(ConfigurationError):
            road_graph(10, 10, subdivide_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            road_graph(10, 10, deadend_fraction=1.5)
        with pytest.raises(ConfigurationError):
            grid_graph(0, 5)


class TestSocialGraphs:
    @pytest.mark.parametrize("maker", [web_graph, citation_graph, social_graph,
                                       collaboration_graph])
    def test_families_produce_simple_graphs(self, maker):
        g = maker(500, seed=1)
        assert g.num_nodes == 500
        assert not np.any(g.u == g.v)
        assert g.deduplicated().num_edges == g.num_edges

    def test_density_ordering(self):
        n = 1000
        assert collaboration_graph(n, seed=2).num_edges > social_graph(n, seed=2).num_edges
        assert social_graph(n, seed=2).num_edges > web_graph(n, seed=2).num_edges

    def test_power_law_ish_degrees(self):
        g = social_graph(2000, seed=3)
        degrees = g.degrees()
        assert degrees.max() > 5 * degrees.mean()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            preferential_attachment_graph(2)
        with pytest.raises(ConfigurationError):
            preferential_attachment_graph(100, edges_per_node=0)
        with pytest.raises(ConfigurationError):
            preferential_attachment_graph(100, pendant_fraction=2.0)
