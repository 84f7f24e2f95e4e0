"""Tests for node statistics derived from the Euler tour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler import (
    build_euler_tour_from_parents,
    compute_tree_stats,
    tree_statistics_from_parents,
)
from repro.graphs import CSRGraph, bfs_cpu, depths_from_parents
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import relabel_tree, tree_root

from .conftest import TREE_KINDS, make_tree, subtree_sizes


class TestAgainstSequentialOracles:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 333])
    def test_all_statistics(self, kind, n):
        parents = make_tree(kind, n, seed=n + 17)
        stats = tree_statistics_from_parents(parents)
        assert np.array_equal(stats.parent, parents)
        assert np.array_equal(stats.depth, depths_from_parents(parents))
        assert np.array_equal(stats.subtree_size, subtree_sizes(parents))

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_preorder_is_valid(self, n):
        parents = make_tree("shallow", n, seed=n)
        stats = tree_statistics_from_parents(parents)
        # 1-based permutation with the root first.
        assert sorted(stats.preorder.tolist()) == list(range(1, n + 1))
        assert stats.preorder[stats.root] == 1
        # Children have larger preorder numbers than their parents.
        for v in range(n):
            if v != stats.root:
                assert stats.preorder[v] > stats.preorder[parents[v]]

    def test_preorder_subtree_intervals_nest(self):
        parents = make_tree("shallow", 200, seed=5)
        stats = tree_statistics_from_parents(parents)
        start = stats.preorder - 1
        end = start + stats.subtree_size - 1
        for v in range(200):
            p = parents[v]
            if p < 0:
                continue
            # child interval contained in parent interval
            assert start[p] <= start[v] <= end[v] <= end[p]

    def test_subtree_interval_size_matches(self):
        parents = make_tree("scale-free", 150, seed=6)
        stats = tree_statistics_from_parents(parents)
        start = stats.preorder - 1
        end = start + stats.subtree_size - 1
        # The interval of v holds the preorder numbers of exactly v's subtree.
        by_preorder = np.argsort(start)
        for v in range(150):
            inside = by_preorder[start[v]:end[v] + 1].tolist()
            assert len(inside) == stats.subtree_size[v]
            for node in inside:
                while node != v:
                    node = parents[node]
                    assert node >= 0


def sequential_preorder(parents):
    """1-based preorder of the walk the Euler tour takes, one node at a time.

    The DCEL orders each node's half-edges by target, and the tour leaves a
    node entered from ``p`` along the half-edge after the one back to ``p``,
    cyclically: the root's children in increasing id, any other node's
    children above ``p`` first, then those below.
    """
    n = len(parents)
    neighbours = [[] for _ in range(n)]
    for v, p in enumerate(parents.tolist()):
        if p >= 0:
            neighbours[v].append(p)
            neighbours[p].append(v)
    preorder = np.zeros(n, dtype=np.int64)
    stack = [(tree_root(parents), -1)]
    number = 0
    while stack:
        node, came_from = stack.pop()
        number += 1
        preorder[node] = number
        kids = sorted(c for c in neighbours[node] if c != came_from)
        kids = [c for c in kids if c > came_from] + [c for c in kids if c < came_from]
        stack.extend((c, node) for c in reversed(kids))
    return preorder


@st.composite
def trees(draw):
    """Paths, stars and random-attachment trees of 1-300 nodes, each under a
    random relabelling, so the root is rarely node 0."""
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["path", "star", "attachment"]))
    if shape == "path":
        parents = np.arange(-1, n - 1, dtype=np.int64)
    elif shape == "star":
        parents = np.zeros(n, dtype=np.int64)
        parents[0] = -1
    else:
        seed = draw(st.integers(0, 2**16))
        parents = random_attachment_tree(n, seed=seed, relabel=False)
    permutation = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(n)
    return relabel_tree(parents, permutation)


class TestAgainstSequentialReferences:
    """Every statistic, read off the paired tour positions of twin half-edges
    and one preorder scan, equals the sequential computation."""

    @given(trees())
    @settings(max_examples=150, deadline=None)
    def test_every_statistic(self, parents):
        stats = tree_statistics_from_parents(parents)
        assert stats.root == tree_root(parents)
        assert np.array_equal(stats.parent, parents)
        assert np.array_equal(stats.depth, depths_from_parents(parents))
        assert np.array_equal(stats.subtree_size, subtree_sizes(parents))
        assert np.array_equal(stats.preorder, sequential_preorder(parents))
        for table in (stats.parent, stats.depth, stats.preorder, stats.subtree_size):
            assert table.dtype == np.int64 and table.base is None


class TestFigure1:
    def test_exact_values(self, figure1_parents):
        stats = tree_statistics_from_parents(figure1_parents)
        assert stats.root == 0
        assert stats.depth.tolist() == [0, 2, 1, 1, 1, 2]
        assert stats.subtree_size.tolist() == [6, 1, 3, 1, 1, 1]
        assert stats.preorder[0] == 1
        # node 2's subtree {1, 2, 5} occupies a contiguous preorder interval
        pre = stats.preorder
        interval = sorted([pre[1], pre[2], pre[5]])
        assert interval == list(range(pre[2], pre[2] + 3))


class TestRootVariants:
    def test_stats_respect_chosen_root(self):
        from repro.graphs import parents_to_edgelist
        from repro.euler import build_euler_tour

        base = make_tree("shallow", 80, seed=9)
        edges = parents_to_edgelist(base)
        root = 42
        tour = build_euler_tour(edges, root)
        stats = compute_tree_stats(tour)
        expected_parents = bfs_cpu(CSRGraph.from_edgelist(edges), root).parents
        assert np.array_equal(stats.parent, expected_parents)
        assert np.array_equal(stats.depth, depths_from_parents(expected_parents))

    def test_single_node(self):
        stats = tree_statistics_from_parents(np.asarray([-1]))
        assert stats.parent.tolist() == [-1]
        assert stats.depth.tolist() == [0]
        assert stats.subtree_size.tolist() == [1]
        assert stats.preorder.tolist() == [1]


class TestCostAccounting:
    def test_charged_to_context(self, gpu_ctx):
        parents = make_tree("shallow", 500, seed=1)
        tree_statistics_from_parents(parents, ctx=gpu_ctx)
        assert gpu_ctx.elapsed > 0
        assert gpu_ctx.total_launches > 5

    def test_scan_based_stats_cheaper_than_tour_construction(self):
        """The §2.2 optimization: after the single list ranking, node
        statistics are plain array scans, much cheaper than the tour build."""
        from repro.device import ExecutionContext, GTX980

        parents = make_tree("shallow", 20_000, seed=2)
        tour_ctx = ExecutionContext(GTX980)
        tour = build_euler_tour_from_parents(parents, ctx=tour_ctx)
        stats_ctx = ExecutionContext(GTX980)
        compute_tree_stats(tour, ctx=stats_ctx)
        assert stats_ctx.elapsed < tour_ctx.elapsed
