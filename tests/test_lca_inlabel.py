"""Tests for the Inlabel (Schieber–Vishkin) LCA algorithm."""

import numpy as np
import pytest

from repro.device import ExecutionContext, GTX980, XEON_X5650_SINGLE
from repro.errors import InvalidQueryError, NotATreeError
from repro.euler import tree_statistics_from_parents
from repro.graphs import generate_random_queries
from repro.lca import (
    RMQLCA,
    BinaryLiftingLCA,
    InlabelLCA,
    NaiveGPULCA,
    SequentialInlabelLCA,
    build_inlabel_structure,
    brute_force_lca_batch,
    pointer_jump_levels,
)

from .conftest import TREE_KINDS, make_tree, random_connected_graph
from .test_graphs_trees import NOT_PARENT_ARRAYS
from .test_inlabel_kernel import all_parent_arrays, caterpillar, complete_binary

IMPLEMENTATIONS = [InlabelLCA, SequentialInlabelLCA]


def tables_from_the_definitions(structure):
    """``(inlabel, head, ascendant, hops)`` by brute force, from the preorder
    numbers and subtree sizes alone: ``hops`` is what the device's ascendant
    walk is charged for, one hop per inlabel path above each node's own."""
    parent = structure.parent.tolist()
    n = len(parent)
    inlabel = []
    for pre, size in zip(structure.preorder.tolist(), structure.subtree_size.tolist()):
        interval = range(pre, pre + size)
        inlabel.append(max(interval, key=lambda value: value & -value))
    head = [-1] * structure.head.size
    ascendant, hops = [], 0
    for v in range(n):
        levels, paths, a = 0, set(), v
        while a != -1:
            levels |= inlabel[a] & -inlabel[a]
            paths.add(inlabel[a])
            if parent[a] == -1 or inlabel[parent[a]] != inlabel[a]:
                head[inlabel[a]] = a
            a = parent[a]
        ascendant.append(levels)
        hops += len(paths) - 1
    return inlabel, head, ascendant, hops


def assert_tables_match_the_definitions(parents):
    ctx = ExecutionContext(GTX980, trace=True)
    structure = InlabelLCA(parents, ctx=ctx).structure
    inlabel, head, ascendant, hops = tables_from_the_definitions(structure)
    assert structure.inlabel.tolist() == inlabel
    assert structure.head.tolist() == head
    assert structure.ascendant.tolist() == ascendant
    walk, = (r for r in ctx.records if r.name == "inlabel_ascendant_walk")
    n = parents.size
    assert walk.ops == 2.0 * n + 4.0 * hops
    assert walk.bytes_read == 16.0 * n + 32.0 * hops


class TestStructureProperties:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_path_partition_property(self, kind):
        """Nodes sharing an inlabel value form a single top-down path."""
        parents = make_tree(kind, 120, seed=3)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        inlabel = structure.inlabel
        for value in np.unique(inlabel):
            members = np.flatnonzero(inlabel == value)
            depths = sorted(structure.depth[members].tolist())
            # Consecutive depths (a path, one node per level) ...
            assert depths == list(range(depths[0], depths[0] + len(members)))
            # ... and each non-head member's parent is also on the path.
            head = structure.head[value]
            for v in members:
                if v != head:
                    assert inlabel[parents[v]] == value or parents[v] == -1

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_inlabel_lies_in_subtree_interval(self, kind):
        parents = make_tree(kind, 150, seed=4)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        lo = stats.preorder
        hi = stats.preorder + stats.subtree_size - 1
        assert np.all(structure.inlabel >= lo)
        assert np.all(structure.inlabel <= hi)

    def test_head_is_shallowest_on_path(self):
        parents = make_tree("shallow", 200, seed=5)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        for value in np.unique(structure.inlabel):
            members = np.flatnonzero(structure.inlabel == value)
            head = structure.head[value]
            assert head in members
            assert structure.depth[head] == structure.depth[members].min()

    def test_ascendant_root_bit_always_present(self):
        parents = make_tree("shallow", 100, seed=6)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        root_bit = structure.ascendant[stats.root]
        assert np.all((structure.ascendant & root_bit) == root_bit)


class TestTablesFromTheDefinitions:
    """``ascendant`` comes from pointer doubling over the path heads and its
    charged hops from a popcount; both must be what a walk up every root
    path finds."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_labelled_rooted_tree(self, n):
        for parents in all_parent_arrays(n):
            assert_tables_match_the_definitions(parents)

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 128, 257])
    @pytest.mark.parametrize(
        "shape", ["path", "star", "caterpillar", "binary", "shallow", "deep"]
    )
    def test_tree_families(self, shape, n):
        build = {"caterpillar": caterpillar, "binary": complete_binary}.get(shape)
        parents = build(n) if build else make_tree(shape, n, seed=n)
        assert_tables_match_the_definitions(parents)

    def test_sequential_flavour_builds_the_same_tables(self):
        parents = make_tree("deep", 500, seed=8)
        a, b = InlabelLCA(parents).structure, SequentialInlabelLCA(parents).structure
        for field in ("inlabel", "ascendant", "head"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


class TestQueryCorrectness:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 120])
    def test_against_brute_force(self, implementation, kind, n):
        parents = make_tree(kind, n, seed=n * 7 + 1)
        xs, ys = generate_random_queries(n, 80, seed=n)
        expected = brute_force_lca_batch(parents, xs, ys)
        algo = implementation(parents)
        assert np.array_equal(algo.query(xs, ys), expected)

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_against_binary_lifting_on_large_tree(self, implementation):
        parents = make_tree("deep", 4000, seed=11)
        xs, ys = generate_random_queries(4000, 3000, seed=12)
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        assert np.array_equal(implementation(parents).query(xs, ys), expected)

    def test_query_of_node_with_itself(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        nodes = np.arange(6)
        assert np.array_equal(algo.query(nodes, nodes), nodes)

    def test_query_with_ancestor(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        assert algo.query(np.asarray([5]), np.asarray([2]))[0] == 2
        assert algo.query(np.asarray([2]), np.asarray([5]))[0] == 2
        assert algo.query(np.asarray([1]), np.asarray([0]))[0] == 0

    def test_scalar_like_single_query(self, figure1_parents):
        algo = SequentialInlabelLCA(figure1_parents)
        assert algo.query(1, 5)[0] == 2

    def test_empty_query_batch(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        out = algo.query(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert out.size == 0

    def test_gpu_and_sequential_agree(self):
        parents = make_tree("scale-free", 2500, seed=13)
        xs, ys = generate_random_queries(2500, 2000, seed=14)
        a = InlabelLCA(parents).query(xs, ys)
        b = SequentialInlabelLCA(parents).query(xs, ys)
        assert np.array_equal(a, b)


class TestValidationAndErrors:
    def test_out_of_range_query_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(InvalidQueryError):
            algo.query(np.asarray([0]), np.asarray([17]))

    def test_mismatched_query_shapes_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(InvalidQueryError):
            algo.query(np.asarray([0, 1]), np.asarray([1]))

    def test_validate_flag(self):
        with pytest.raises(NotATreeError):
            InlabelLCA(np.asarray([-1, -1]), validate=True)


def walk_ops(ctx):
    return {
        r.name: r.ops
        for r in ctx.records
        if r.name in ("weijaja_sublist_walk", "inlabel_ascendant_walk")
    }


class TestGoldenModeledCharges:
    """Modeled time must not notice how the host computes a kernel's result.

    The values were recorded at the commit before the sublist walk was
    compacted and ``ascendant`` moved to pointer doubling; equality is exact.
    The two walk kernels are the ones whose charged work (total hops) the
    host derives on the side.
    """

    GOLDEN_INDEX = {
        "shallow": (
            lambda: make_tree("shallow", 1000, seed=7),
            0.00016870253860962897,
            {"weijaja_sublist_walk": 5994.0, "inlabel_ascendant_walk": 13708.0},
            17,
        ),
        "deep": (
            lambda: make_tree("deep", 777, seed=3),
            0.00016562227882205513,
            {"weijaja_sublist_walk": 4656.0, "inlabel_ascendant_walk": 9194.0},
            17,
        ),
        "single node": (
            lambda: np.asarray([-1]),
            1.6186184210526316e-05,
            {"inlabel_ascendant_walk": 2.0},
            4,
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_INDEX))
    def test_index_build(self, case):
        build, elapsed, walks, records = self.GOLDEN_INDEX[case]
        ctx = ExecutionContext(GTX980, trace=True)
        InlabelLCA(build(), ctx=ctx)
        assert ctx.elapsed == elapsed
        assert ctx.breakdown() == {"preprocessing": elapsed}
        assert walk_ops(ctx) == walks
        assert len(ctx.records) == records

    def test_tarjan_vishkin_bridges(self):
        from repro.bridges import find_bridges_tarjan_vishkin

        ctx = ExecutionContext(GTX980, trace=True)
        result = find_bridges_tarjan_vishkin(
            random_connected_graph(300, 120, seed=5), ctx=ctx
        )
        assert int(result.bridge_mask.sum()) == 88
        assert ctx.elapsed == 0.00021988614978260047
        assert ctx.breakdown() == {
            "Spanning tree": 3.749324162679426e-05,
            "Euler tour": 0.00015601663184001673,
            "Detect bridges": 2.6376276315789476e-05,
        }
        assert walk_ops(ctx) == {"weijaja_sublist_walk": 1794.0}
        assert len(ctx.records) == 30


class TestParentArrayIsRefusedNotCast:
    """``InlabelLCA(np.array([-1, 0.9, 1.2]))`` used to index ``[-1, 0, 1]``."""

    @pytest.mark.parametrize("case", sorted(NOT_PARENT_ARRAYS))
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_index_constructors(self, implementation, case):
        for validate in (False, True):
            with pytest.raises(NotATreeError, match="integers|1-D"):
                implementation(NOT_PARENT_ARRAYS[case], validate=validate)

    @pytest.mark.parametrize("case", sorted(NOT_PARENT_ARRAYS))
    @pytest.mark.parametrize(
        "baseline", [BinaryLiftingLCA, NaiveGPULCA, RMQLCA, pointer_jump_levels]
    )
    def test_baselines_and_oracle(self, baseline, case):
        with pytest.raises(NotATreeError, match="integers|1-D"):
            baseline(NOT_PARENT_ARRAYS[case])

    @pytest.mark.parametrize("case", sorted(NOT_PARENT_ARRAYS))
    @pytest.mark.parametrize("variant", ["parallel", "sequential", "smallbatch"])
    def test_kernel_backends(self, variant, case):
        from repro.lca import build_inlabel_index
        from repro.lca.artifacts import ARTIFACT_BUILDERS

        bad = NOT_PARENT_ARRAYS[case]
        with pytest.raises(NotATreeError, match="integers|1-D"):
            ARTIFACT_BUILDERS[variant](build_inlabel_index(bad))

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_integer_lists_and_narrow_dtypes_still_build(self, implementation):
        for parents in ([-1, 0, 1], np.array([-1, 0, 1], dtype=np.int16)):
            assert implementation(parents).query([2], [1]).tolist() == [1]


class TestCostAccounting:
    def test_preprocessing_and_queries_charged_to_phases(self):
        parents = make_tree("shallow", 3000, seed=15)
        ctx = ExecutionContext(GTX980)
        algo = InlabelLCA(parents, ctx=ctx)
        assert "preprocessing" in ctx.breakdown()
        xs, ys = generate_random_queries(3000, 3000, seed=16)
        qctx = ExecutionContext(GTX980)
        algo.query(xs, ys, ctx=qctx)
        assert "queries" in qctx.breakdown()

    def test_query_cost_independent_of_tree_depth(self):
        """The defining property of the Inlabel algorithm: O(1) per query
        regardless of depth (contrast with NaiveGPULCA)."""
        n, q = 5000, 5000
        xs, ys = generate_random_queries(n, q, seed=17)
        times = []
        for kind in ("shallow", "path"):
            parents = make_tree(kind, n, seed=18)
            algo = InlabelLCA(parents)
            ctx = ExecutionContext(GTX980)
            algo.query(xs, ys, ctx=ctx)
            times.append(ctx.elapsed)
        assert times[1] == pytest.approx(times[0], rel=0.01)

    def test_sequential_query_cost_linear_in_batch(self):
        parents = make_tree("shallow", 1000, seed=19)
        algo = SequentialInlabelLCA(parents)
        xs, ys = generate_random_queries(1000, 1000, seed=20)
        small = ExecutionContext(XEON_X5650_SINGLE)
        algo.query(xs[:100], ys[:100], ctx=small)
        large = ExecutionContext(XEON_X5650_SINGLE)
        algo.query(xs, ys, ctx=large)
        assert large.elapsed == pytest.approx(10 * small.elapsed, rel=0.05)
