"""Hypothesis property tests: Euler tour statistics and LCA algorithms on random trees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler import tree_statistics_from_parents
from repro.graphs import depths_from_parents
from repro.lca import (
    BinaryLiftingLCA,
    InlabelLCA,
    NaiveGPULCA,
    RMQLCA,
    SequentialInlabelLCA,
)

from .conftest import subtree_sizes


@st.composite
def random_parent_arrays(draw, max_nodes=80):
    """A random rooted tree as a parent array, with shuffled node labels."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    # Build in canonical order (parent index < child index), then relabel.
    canonical = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    label_perm = draw(st.permutations(list(range(n))))
    label = np.asarray(label_perm, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    for child in range(1, n):
        parents[label[child]] = label[canonical[child]]
    parents[label[0]] = -1
    return parents


@st.composite
def tree_with_queries(draw, max_nodes=80, max_queries=30):
    parents = draw(random_parent_arrays(max_nodes=max_nodes))
    n = parents.size
    q = draw(st.integers(min_value=1, max_value=max_queries))
    xs = np.asarray([draw(st.integers(0, n - 1)) for _ in range(q)], dtype=np.int64)
    ys = np.asarray([draw(st.integers(0, n - 1)) for _ in range(q)], dtype=np.int64)
    return parents, xs, ys


@settings(max_examples=50, deadline=None)
@given(random_parent_arrays())
def test_euler_stats_match_sequential_oracles(parents):
    stats = tree_statistics_from_parents(parents)
    assert np.array_equal(stats.parent, parents)
    assert np.array_equal(stats.depth, depths_from_parents(parents))
    assert np.array_equal(stats.subtree_size, subtree_sizes(parents))
    assert sorted(stats.preorder.tolist()) == list(range(1, parents.size + 1))


@settings(max_examples=50, deadline=None)
@given(random_parent_arrays())
def test_preorder_intervals_nest_or_are_disjoint(parents):
    stats = tree_statistics_from_parents(parents)
    start = stats.preorder - 1
    end = start + stats.subtree_size - 1
    n = parents.size
    for v in range(min(n, 25)):
        for w in range(min(n, 25)):
            a = (start[v], end[v])
            b = (start[w], end[w])
            nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
            disjoint = a[1] < b[0] or b[1] < a[0]
            assert nested or disjoint


@settings(max_examples=40, deadline=None)
@given(tree_with_queries())
def test_all_lca_algorithms_agree(data):
    parents, xs, ys = data
    oracle = BinaryLiftingLCA(parents).query(xs, ys)
    for cls in (InlabelLCA, SequentialInlabelLCA, NaiveGPULCA, RMQLCA):
        assert np.array_equal(cls(parents).query(xs, ys), oracle), cls.__name__


@settings(max_examples=40, deadline=None)
@given(tree_with_queries())
def test_lca_answer_is_a_common_ancestor_and_deepest(data):
    """Check the LCA definition directly, rather than against another solver."""
    parents, xs, ys = data
    depth = depths_from_parents(parents)
    answers = InlabelLCA(parents).query(xs, ys)

    def ancestors(node):
        out = set()
        while node != -1:
            out.add(int(node))
            node = parents[node]
        return out

    for x, y, z in zip(xs.tolist(), ys.tolist(), answers.tolist()):
        ax, ay = ancestors(x), ancestors(y)
        common = ax & ay
        assert z in common
        assert depth[z] == max(depth[list(common)])
