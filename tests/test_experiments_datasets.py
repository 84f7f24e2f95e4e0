"""Tests for the dataset registry (Table 1 stand-ins)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    BREAKDOWN_DATASETS,
    DATASETS,
    KRONECKER_DATASETS,
    REALWORLD_DATASETS,
    get_dataset_spec,
    load_dataset,
)
from repro.graphs import is_connected


class TestRegistry:
    def test_sixteen_datasets_like_table1(self):
        assert len(DATASETS) == 16

    def test_categories(self):
        assert len(KRONECKER_DATASETS) == 6
        assert len(REALWORLD_DATASETS) == 10
        kronecker = {name for name, spec in DATASETS.items()
                     if spec.category == "kronecker"}
        assert kronecker == set(KRONECKER_DATASETS)

    def test_breakdown_subset(self):
        assert set(BREAKDOWN_DATASETS) <= set(DATASETS)

    def test_every_dataset_has_paper_stats(self):
        for name in DATASETS:
            spec = get_dataset_spec(name)
            nodes, edges, bridges, diameter = spec.paper_stats
            assert nodes > 0 and edges > 0 and bridges >= 0 and diameter > 0
            assert spec.paper_name

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_dataset_spec("facebook-2045")
        with pytest.raises(ConfigurationError):
            load_dataset("facebook-2045")


class TestLoading:
    @pytest.mark.parametrize("name", ["kron-s10", "web-wikipedia-like", "road-east-like"])
    def test_loaded_graphs_are_connected(self, name):
        graph = load_dataset(name, scale=0.05)
        assert graph.num_nodes > 0
        assert is_connected(graph)

    def test_scale_changes_size(self):
        small = load_dataset("road-east-like", scale=0.02)
        large = load_dataset("road-east-like", scale=0.08)
        assert large.num_nodes > 2 * small.num_nodes

    def test_deterministic(self):
        import numpy as np

        a = load_dataset("kron-s10", scale=0.1)
        b = load_dataset("kron-s10", scale=0.1)
        assert a.num_nodes == b.num_nodes
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            load_dataset("kron-s10", scale=0.0)

    def test_scale_env_var(self, monkeypatch):
        from repro.experiments.datasets import SCALE_ENV_VAR

        monkeypatch.setenv(SCALE_ENV_VAR, "0.05")
        small = load_dataset("road-east-like")
        assert small.num_nodes < 10_000
        monkeypatch.setenv(SCALE_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigurationError):
            load_dataset("road-east-like")

    def test_family_characteristics(self):
        """The three families must occupy the regimes the paper relies on:
        small-diameter dense-ish kron/social vs. large-diameter sparse road."""
        from repro.graphs import pseudo_diameter

        kron = load_dataset("kron-s10", scale=0.5)
        road = load_dataset("road-east-like", scale=0.05)
        assert kron.num_edges / kron.num_nodes > 4
        assert road.num_edges / road.num_nodes < 2
        assert pseudo_diameter(road) > 5 * pseudo_diameter(kron)
