"""Hypothesis property tests for the bridge-finding algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bridges import (
    find_bridges_ck,
    find_bridges_dfs,
    find_bridges_hybrid,
    find_bridges_networkx,
    find_bridges_tarjan_vishkin,
)
from repro.graphs import EdgeList, connected_components


@st.composite
def connected_multigraphs(draw, max_nodes=40, max_extra=60):
    """A random connected multigraph (random spanning tree + random extra
    edges, which may include duplicates and self-loops)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    tree_u = []
    tree_v = []
    for child in range(1, n):
        tree_u.append(child)
        tree_v.append(draw(st.integers(0, child - 1)))
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    extra_u = [draw(st.integers(0, n - 1)) for _ in range(extra)]
    extra_v = [draw(st.integers(0, n - 1)) for _ in range(extra)]
    u = np.asarray(tree_u + extra_u, dtype=np.int64)
    v = np.asarray(tree_v + extra_v, dtype=np.int64)
    return EdgeList(u, v, n)


PARALLEL = [find_bridges_tarjan_vishkin, find_bridges_ck, find_bridges_hybrid]


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs())
def test_all_algorithms_agree_with_networkx(graph):
    oracle = find_bridges_networkx(graph)
    assert find_bridges_dfs(graph).agrees_with(oracle)
    for algorithm in PARALLEL:
        assert algorithm(graph).agrees_with(oracle), algorithm.__name__


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs(max_nodes=25, max_extra=30))
def test_removing_a_bridge_disconnects_removing_a_nonbridge_does_not(graph):
    """Check the bridge definition directly: deleting a bridge increases the
    component count, deleting a non-bridge does not."""
    result = find_bridges_tarjan_vishkin(graph)
    base_components = np.unique(connected_components(graph)).size
    m = graph.num_edges
    # Check a handful of edges of each kind to keep the test fast.
    checked_bridges = list(np.flatnonzero(result.bridge_mask)[:3])
    non_bridges = [i for i in range(m) if not result.bridge_mask[i]][:3]
    for edge_index in checked_bridges + non_bridges:
        keep = np.ones(m, dtype=bool)
        keep[edge_index] = False
        reduced = EdgeList(graph.u[keep], graph.v[keep], graph.num_nodes)
        components = np.unique(connected_components(reduced)).size
        if result.bridge_mask[edge_index]:
            assert components == base_components + 1
        else:
            assert components == base_components


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs(max_nodes=30, max_extra=40))
def test_bridge_count_invariants(graph):
    result = find_bridges_dfs(graph)
    # Bridges are a subset of any spanning tree, so there are at most n-1.
    assert result.num_bridges <= graph.num_nodes - 1
    # A duplicated (parallel) edge is never a bridge.
    key = {}
    for idx, (a, b) in enumerate(graph.edges()):
        key.setdefault((min(a, b), max(a, b)), []).append(idx)
    for indices in key.values():
        if len(indices) > 1:
            for idx in indices:
                assert not result.bridge_mask[idx]
