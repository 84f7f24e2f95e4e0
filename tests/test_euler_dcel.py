"""Tests for the DCEL half-edge structure (paper §2.1)."""

import numpy as np
import pytest

from repro.errors import NotATreeError
from repro.euler import build_dcel
from repro.graphs import EdgeList, parents_to_edgelist
from repro.graphs.generators import random_attachment_tree

from .conftest import PAPER_FIGURE1_PARENTS


def figure1_edges():
    return parents_to_edgelist(PAPER_FIGURE1_PARENTS)


class TestStructure:
    def test_twin_is_involution_and_reverses(self):
        dcel = build_dcel(figure1_edges())
        h = dcel.num_halfedges
        assert h == 10
        for e in range(h):
            t = int(dcel.twin[e])
            assert int(dcel.twin[t]) == e
            assert dcel.src[e] == dcel.dst[t]
            assert dcel.dst[e] == dcel.src[t]
        # The layout tree statistics lean on: twins are the pairs (2i, 2i + 1).
        big = build_dcel(parents_to_edgelist(random_attachment_tree(1000, seed=3)))
        for d in (dcel, big):
            assert np.array_equal(d.twin, np.arange(d.num_halfedges) ^ 1)
            assert np.array_equal(d.src[d.twin], d.dst)

    def test_next_permutes_edges_within_source(self):
        dcel = build_dcel(figure1_edges())
        h = dcel.num_halfedges
        # next is a permutation of the half-edges...
        assert sorted(dcel.next.tolist()) == list(range(h))
        # ...that never leaves the source node's out-star.
        for e in range(h):
            assert dcel.src[int(dcel.next[e])] == dcel.src[e]

    def test_next_cycles_cover_each_out_star(self):
        parents = random_attachment_tree(50, seed=1)
        edges = parents_to_edgelist(parents)
        dcel = build_dcel(edges)
        degrees = edges.degrees()
        for node in range(50):
            start = int(dcel.first[node])
            if degrees[node] == 0:
                assert start == -1
                continue
            seen = set()
            e = start
            while e not in seen:
                seen.add(e)
                assert dcel.src[e] == node
                e = int(dcel.next[e])
            assert len(seen) == degrees[node]

    def test_first_points_to_lexicographically_smallest_neighbor(self):
        dcel = build_dcel(figure1_edges())
        for node in range(6):
            e = int(dcel.first[node])
            if e == -1:
                continue
            neighbors = dcel.dst[dcel.src == node]
            assert dcel.dst[e] == neighbors.min()

    def test_undirected_edge_ids(self):
        edges = figure1_edges()
        dcel = build_dcel(edges)
        # Half-edges 2i and 2i + 1 are the two directions of input edge i.
        for e in range(dcel.num_halfedges):
            i = e // 2
            assert {int(dcel.src[e]), int(dcel.dst[e])} == {int(edges.u[i]), int(edges.v[i])}

    def test_single_node_tree(self):
        dcel = build_dcel(EdgeList.from_pairs([], n=1))
        assert dcel.num_halfedges == 0
        assert dcel.first.tolist() == [-1]

    def test_two_node_tree(self):
        dcel = build_dcel(EdgeList.from_pairs([(0, 1)], n=2))
        assert dcel.num_halfedges == 2
        assert dcel.next.tolist() == [0, 1]  # each out-star is a singleton cycle
        assert dcel.twin.tolist() == [1, 0]


class TestValidation:
    def test_wrong_edge_count_rejected(self):
        with pytest.raises(NotATreeError):
            build_dcel(EdgeList.from_pairs([(0, 1), (1, 2), (0, 2)], n=3))

    def test_self_loop_rejected(self):
        with pytest.raises(NotATreeError):
            build_dcel(EdgeList.from_pairs([(0, 0), (1, 2)], n=3))

    def test_empty_tree_rejected(self):
        with pytest.raises(NotATreeError):
            build_dcel(EdgeList.from_pairs([], n=0))


class TestCost:
    def test_sort_dominates_charged_cost(self, gpu_ctx):
        parents = random_attachment_tree(2000, seed=2)
        build_dcel(parents_to_edgelist(parents), ctx=gpu_ctx)
        sort_time = sum(rec.time_s for rec in gpu_ctx.records
                        if rec.name == "radix_sort_pairs")
        assert sort_time > 0.3 * gpu_ctx.elapsed
