"""Tests for the EdgeList representation."""

import numpy as np
import pytest

from repro.errors import InvalidGraphError
from repro.graphs import EdgeList


class TestConstruction:
    def test_basic(self):
        g = EdgeList(np.asarray([0, 1]), np.asarray([1, 2]), 3)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert len(g) == 2

    def test_from_pairs_infers_n(self):
        g = EdgeList.from_pairs([(0, 1), (1, 4)])
        assert g.num_nodes == 5
        assert list(g.edges()) == [(0, 1), (1, 4)]

    def test_from_pairs_explicit_n(self):
        g = EdgeList.from_pairs([(0, 1)], n=10)
        assert g.num_nodes == 10

    def test_from_pairs_empty(self):
        g = EdgeList.from_pairs([])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InvalidGraphError):
            EdgeList(np.asarray([0]), np.asarray([5]), 3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(InvalidGraphError):
            EdgeList(np.asarray([-1]), np.asarray([0]), 3)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(InvalidGraphError):
            EdgeList(np.asarray([0, 1]), np.asarray([1]), 3)

    def test_malformed_pairs_rejected(self):
        with pytest.raises(InvalidGraphError):
            EdgeList.from_pairs([(0, 1, 2)])


#: Endpoint arrays a cast to ``int64`` would silently turn into node ids.
NOT_NODE_IDS = {
    "float": np.array([0.7, 1.9]),
    "float, whole values": np.array([0.0, 1.0]),
    "bool": np.array([True, False]),
    "object": np.array([0, 1], dtype=object),
    "str": np.array(["0", "1"]),
}


class TestRefusedNotCast:
    """``EdgeList([0.7, 1.9], [1.2, 2.5], 3)`` used to build (0, 1), (1, 2)."""

    @pytest.mark.parametrize("case", sorted(NOT_NODE_IDS))
    def test_endpoints(self, case):
        bad, good = NOT_NODE_IDS[case], np.array([1, 2])
        for u, v in [(bad, good), (good, bad)]:
            with pytest.raises(InvalidGraphError, match="must be integers"):
                EdgeList(u, v, 3)

    def test_from_pairs(self):
        with pytest.raises(InvalidGraphError, match="must be integers"):
            EdgeList.from_pairs([(0.7, 1), (1.9, 2)], n=3)

    @pytest.mark.parametrize("n", [3.5, 3.0, "3", None])
    def test_node_count(self, n):
        with pytest.raises(InvalidGraphError, match="node count must be an integer"):
            EdgeList([0, 1], [1, 2], n)

    @pytest.mark.parametrize("case", sorted(NOT_NODE_IDS))
    def test_relabeling(self, case):
        g = EdgeList([0], [1], 2)
        with pytest.raises(InvalidGraphError, match="must be integers"):
            g.relabeled(NOT_NODE_IDS[case])

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32]
    )
    def test_integers_of_any_width_pass(self, dtype):
        g = EdgeList(np.array([0, 1], dtype=dtype), [1, 2], np.int32(3))
        assert g.u.dtype == g.v.dtype == np.int64 and type(g.n) is int
        assert list(g.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.int64])
    def test_empty_of_any_dtype_passes(self, dtype):
        g = EdgeList(np.empty(0, dtype=dtype), [], 4)
        assert g.num_edges == 0 and g.u.dtype == np.int64


class TestNormalization:
    def test_self_loop_removal(self):
        g = EdgeList.from_pairs([(0, 0), (0, 1)], n=2)
        clean = g.without_self_loops()
        assert list(clean.edges()) == [(0, 1)]

    def test_canonical_undirected(self):
        g = EdgeList.from_pairs([(2, 1), (0, 3)], n=4).canonical_undirected()
        assert list(g.edges()) == [(1, 2), (0, 3)]

    def test_deduplicated_removes_parallel_edges_and_loops(self):
        g = EdgeList.from_pairs([(0, 1), (1, 0), (0, 1), (2, 2)], n=3)
        d = g.deduplicated()
        assert d.num_edges == 1
        assert list(d.edges()) == [(0, 1)]

    def test_degrees(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (1, 3)], n=4)
        assert g.degrees().tolist() == [1, 3, 1, 1]

    def test_degrees_count_self_loops_twice(self):
        g = EdgeList.from_pairs([(0, 0)], n=1)
        assert g.degrees().tolist() == [2]


class TestDerivedRepresentations:
    def test_directed_halfedges_layout(self):
        g = EdgeList.from_pairs([(0, 2), (1, 2)], n=3)
        src, dst = g.directed_halfedges()
        assert src.tolist() == [0, 2, 1, 2]
        assert dst.tolist() == [2, 0, 2, 1]

    def test_relabeled_preserves_structure(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2)], n=3)
        perm = np.asarray([2, 0, 1])
        r = g.relabeled(perm)
        assert sorted(map(tuple, map(sorted, r.edges()))) == [(0, 1), (0, 2)]

    def test_relabeled_requires_bijection(self):
        g = EdgeList.from_pairs([(0, 1)], n=2)
        with pytest.raises(InvalidGraphError):
            g.relabeled(np.asarray([0, 0]))

    def test_relabeled_requires_full_length(self):
        g = EdgeList.from_pairs([(0, 1)], n=2)
        with pytest.raises(InvalidGraphError):
            g.relabeled(np.asarray([0]))

    def test_subgraph(self):
        g = EdgeList.from_pairs([(0, 1), (1, 2), (2, 3)], n=4)
        sub, old_ids = g.subgraph(np.asarray([True, True, True, False]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert old_ids.tolist() == [0, 1, 2]

    def test_subgraph_renumbers_densely(self):
        g = EdgeList.from_pairs([(1, 3)], n=4)
        sub, old_ids = g.subgraph(np.asarray([False, True, False, True]))
        assert list(sub.edges()) == [(0, 1)]
        assert old_ids.tolist() == [1, 3]

    def test_copy_is_deep(self):
        g = EdgeList.from_pairs([(0, 1)], n=2)
        c = g.copy()
        c.u[0] = 1
        assert g.u[0] == 0
