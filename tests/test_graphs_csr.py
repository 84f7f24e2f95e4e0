"""Tests for the CSR adjacency representation."""

import numpy as np
import pytest

from repro.errors import InvalidGraphError
from repro.graphs import CSRGraph, EdgeList

from .conftest import random_connected_graph


class TestConstruction:
    def test_simple_triangle(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], n=3)
        csr = CSRGraph.from_edgelist(g)
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        assert csr.num_halfedges == 6
        assert sorted(csr.indices[csr.indptr[0]:csr.indptr[1]].tolist()) == [1, 2]
        assert sorted(csr.indices[csr.indptr[1]:csr.indptr[2]].tolist()) == [0, 2]

    def test_degrees_match_edgelist(self):
        g = random_connected_graph(100, 150, seed=0)
        csr = CSRGraph.from_edgelist(g)
        assert np.array_equal(csr.degrees(), g.degrees())

    def test_edge_ids_consistent(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2)], n=3)
        csr = CSRGraph.from_edgelist(g)
        # Every undirected edge id appears exactly twice.
        counts = np.bincount(csr.edge_ids, minlength=2)
        assert counts.tolist() == [2, 2]

    def test_invalid_indptr_rejected(self):
        with pytest.raises(InvalidGraphError):
            CSRGraph(np.asarray([0, 1]), np.asarray([0, 0]), np.asarray([0, 0]), 1, 1)

    def test_charges_cost(self, gpu_ctx):
        CSRGraph.from_edgelist(random_connected_graph(50, 50, seed=1), ctx=gpu_ctx)
        assert gpu_ctx.elapsed > 0


class TestAccessors:
    def test_halfedge_sources(self):
        g = EdgeList.from_pairs([(0, 1), (0, 2)], n=3)
        csr = CSRGraph.from_edgelist(g)
        sources, _, _ = csr.expand_frontier(np.arange(csr.num_nodes))
        assert sources.tolist() == [0, 0, 1, 2]

    def test_expand_frontier_single_node(self):
        g = EdgeList.from_pairs([(0, 1), (0, 2), (1, 2)], n=3)
        csr = CSRGraph.from_edgelist(g)
        srcs, tgts, eids = csr.expand_frontier(np.asarray([0]))
        assert srcs.tolist() == [0, 0]
        assert sorted(tgts.tolist()) == [1, 2]
        assert eids.size == 2

    def test_expand_frontier_multiple_nodes(self):
        g = random_connected_graph(60, 80, seed=2)
        csr = CSRGraph.from_edgelist(g)
        frontier = np.asarray([0, 5, 10])
        srcs, tgts, eids = csr.expand_frontier(frontier)
        expected_total = int(csr.degrees()[frontier].sum())
        assert srcs.size == tgts.size == eids.size == expected_total
        # Every reported (src, tgt) really is an edge.
        edges = set(g.edges()) | {(b, a) for a, b in g.edges()}
        assert set(zip(srcs.tolist(), tgts.tolist())) <= edges

    def test_expand_frontier_empty(self):
        csr = CSRGraph.from_edgelist(EdgeList.from_pairs([(0, 1)], n=2))
        srcs, tgts, eids = csr.expand_frontier(np.asarray([], dtype=np.int64))
        assert srcs.size == tgts.size == eids.size == 0

    def test_expand_frontier_isolated_node(self):
        g = EdgeList(np.asarray([0]), np.asarray([1]), 3)  # node 2 isolated
        csr = CSRGraph.from_edgelist(g)
        srcs, tgts, _ = csr.expand_frontier(np.asarray([2]))
        assert srcs.size == 0 and tgts.size == 0


class TestRoundTrip:
    def test_to_edgelist_preserves_edges(self):
        g = random_connected_graph(40, 30, seed=3)
        csr = CSRGraph.from_edgelist(g)
        sources, targets, eids = csr.expand_frontier(np.arange(csr.num_nodes))
        # Both directions of edge i sit in the slots labelled i.
        assert np.bincount(eids, minlength=g.num_edges).tolist() == [2] * g.num_edges
        for s, t, e in zip(sources.tolist(), targets.tolist(), eids.tolist()):
            assert {s, t} == {int(g.u[e]), int(g.v[e])}
