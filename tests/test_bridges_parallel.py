"""Tests for the parallel bridge-finding algorithms (TV, CK, hybrid)."""

import numpy as np
import pytest

from repro.bridges import (
    find_bridges_ck,
    find_bridges_dfs,
    find_bridges_hybrid,
    find_bridges_networkx,
    find_bridges_tarjan_vishkin,
)
from repro.device import ExecutionContext, GTX980, XEON_X5650_MULTI
from repro.errors import InvalidGraphError
from repro.graphs import EdgeList
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    rmat_graph,
    road_graph,
    social_graph,
    web_graph,
)
from repro.graphs import largest_connected_component

from .conftest import random_connected_graph

PARALLEL_ALGORITHMS = [
    ("tv", lambda g, ctx: find_bridges_tarjan_vishkin(g, ctx=ctx)),
    ("ck-gpu", lambda g, ctx: find_bridges_ck(g, device="gpu", ctx=ctx)),
    ("ck-cpu", lambda g, ctx: find_bridges_ck(g, device="cpu", ctx=ctx)),
    ("hybrid", lambda g, ctx: find_bridges_hybrid(g, ctx=ctx)),
]


@pytest.mark.parametrize("name,run", PARALLEL_ALGORITHMS)
class TestCorrectness:
    def test_path(self, name, run):
        result = run(path_graph(30), ExecutionContext(GTX980))
        assert result.num_bridges == 29

    def test_cycle(self, name, run):
        result = run(cycle_graph(30), ExecutionContext(GTX980))
        assert result.num_bridges == 0

    def test_parallel_edges(self, name, run):
        g = EdgeList.from_pairs([(0, 1), (0, 1), (1, 2)], n=3)
        result = run(g, ExecutionContext(GTX980))
        assert result.bridge_mask.tolist() == [False, False, True]

    def test_self_loops(self, name, run):
        g = EdgeList.from_pairs([(0, 1), (1, 1), (1, 2), (2, 0)], n=3)
        result = run(g, ExecutionContext(GTX980))
        assert result.bridge_mask.tolist() == [False, False, False, False]

    def test_star(self, name, run):
        g = EdgeList.from_pairs([(0, i) for i in range(1, 12)], n=12)
        result = run(g, ExecutionContext(GTX980))
        assert result.num_bridges == 11

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_against_oracle(self, name, run, seed):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(4, 90))
        extra = int(rng.integers(0, n))
        g = random_connected_graph(n, extra, seed + 200)
        oracle = find_bridges_networkx(g)
        assert run(g, ExecutionContext(GTX980)).agrees_with(oracle)

    def test_structured_graphs_against_oracle(self, name, run):
        for maker in (lambda: rmat_graph(8, 8, seed=4),
                      lambda: road_graph(12, 20, seed=5),
                      lambda: web_graph(500, seed=6),
                      lambda: social_graph(300, seed=7)):
            g, _ = largest_connected_component(maker())
            oracle = find_bridges_networkx(g)
            assert run(g, ExecutionContext(GTX980)).agrees_with(oracle)

    def test_single_node_and_empty(self, name, run):
        assert run(EdgeList.from_pairs([], n=1), ExecutionContext(GTX980)).num_bridges == 0
        assert run(EdgeList.from_pairs([], n=0), ExecutionContext(GTX980)).num_bridges == 0

    def test_two_nodes(self, name, run):
        g = EdgeList.from_pairs([(0, 1)], n=2)
        assert run(g, ExecutionContext(GTX980)).bridge_mask.tolist() == [True]


class TestDisconnectedInputRejected:
    def test_tv(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3)], n=4)
        with pytest.raises(InvalidGraphError):
            find_bridges_tarjan_vishkin(g)

    def test_ck(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3)], n=4)
        with pytest.raises(InvalidGraphError):
            find_bridges_ck(g)

    def test_hybrid(self):
        g = EdgeList.from_pairs([(0, 1), (2, 3)], n=4)
        with pytest.raises(InvalidGraphError):
            find_bridges_hybrid(g)


class TestArgumentsAreCheckedBeforeAnyWork:
    """A bad ``root`` used to leak NumPy's ``IndexError`` from inside the tour;
    a mistyped backend or method raised only after the spanning forest and the
    tour had been built and charged."""

    GRAPH = random_connected_graph(50, 20, seed=3)

    @pytest.mark.parametrize("algorithm", [find_bridges_tarjan_vishkin, find_bridges_hybrid])
    @pytest.mark.parametrize("root", [1.5, 1.0, "0", None, -1, 50, 2**40])
    def test_root(self, algorithm, root, gpu_ctx):
        with pytest.raises(InvalidGraphError, match="root"):
            algorithm(self.GRAPH, root=root, ctx=gpu_ctx)
        assert gpu_ctx.records == []

    @pytest.mark.parametrize("algorithm", [find_bridges_tarjan_vishkin, find_bridges_hybrid])
    def test_list_rank_method(self, algorithm, gpu_ctx):
        with pytest.raises(ValueError, match="unknown list-ranking method"):
            algorithm(self.GRAPH, list_rank_method="wyle", ctx=gpu_ctx)
        assert gpu_ctx.records == []

    def test_rmq_backend(self, gpu_ctx):
        with pytest.raises(ValueError, match="unknown RMQ backend"):
            find_bridges_tarjan_vishkin(self.GRAPH, rmq_backend="fenwick", ctx=gpu_ctx)
        assert gpu_ctx.records == []

    @pytest.mark.parametrize("algorithm", [find_bridges_tarjan_vishkin, find_bridges_hybrid])
    def test_valid_spellings_and_integer_roots_still_run(self, algorithm):
        oracle = find_bridges_dfs(self.GRAPH)
        kwargs = {"rmq_backend": "Sparse_Table"} if algorithm is find_bridges_tarjan_vishkin else {}
        for root in (np.int32(7), 49):
            result = algorithm(self.GRAPH, root=root, list_rank_method="Wei_Jaja", **kwargs)
            assert result.agrees_with(oracle)
        assert algorithm(EdgeList.from_pairs([], n=0)).num_bridges == 0


class TestPhaseBreakdowns:
    def test_tv_phases(self):
        ctx = ExecutionContext(GTX980)
        result = find_bridges_tarjan_vishkin(road_graph(15, 15, seed=8), ctx=ctx)
        assert list(result.phase_times) == ["Spanning tree", "Euler tour", "Detect bridges"]
        assert all(t > 0 for t in result.phase_times.values())

    def test_ck_phases(self):
        ctx = ExecutionContext(GTX980)
        result = find_bridges_ck(road_graph(15, 15, seed=9), ctx=ctx)
        assert list(result.phase_times) == ["BFS", "Mark non-bridges"]

    def test_hybrid_phases(self):
        ctx = ExecutionContext(GTX980)
        result = find_bridges_hybrid(road_graph(15, 15, seed=10), ctx=ctx)
        assert list(result.phase_times) == [
            "Spanning tree", "Euler tour", "Levels and parents", "Mark non-bridges",
        ]

    def test_phase_times_sum_to_context_total(self):
        g, _ = largest_connected_component(rmat_graph(7, 8, seed=11))
        ctx = ExecutionContext(GTX980)
        result = find_bridges_tarjan_vishkin(g, ctx=ctx)
        assert sum(result.phase_times.values()) == pytest.approx(ctx.elapsed)


class TestPerformanceShape:
    def test_ck_multicore_slower_than_gpu(self):
        g, _ = largest_connected_component(rmat_graph(10, 16, seed=12))
        gpu_ctx = ExecutionContext(GTX980)
        find_bridges_ck(g, device="gpu", ctx=gpu_ctx)
        cpu_ctx = ExecutionContext(XEON_X5650_MULTI)
        find_bridges_ck(g, device="cpu", ctx=cpu_ctx)
        assert gpu_ctx.elapsed < cpu_ctx.elapsed

    def test_tv_beats_ck_on_high_diameter_graph(self):
        """The paper's headline bridge result: on road networks (large
        diameter) TV is several times faster than CK."""
        g, _ = largest_connected_component(road_graph(90, 90, seed=13))
        tv_ctx = ExecutionContext(GTX980)
        find_bridges_tarjan_vishkin(g, ctx=tv_ctx)
        ck_ctx = ExecutionContext(GTX980)
        find_bridges_ck(g, ctx=ck_ctx)
        assert tv_ctx.elapsed < ck_ctx.elapsed

    def test_tv_beats_single_core_dfs(self):
        from repro.device import XEON_X5650_SINGLE

        g, _ = largest_connected_component(rmat_graph(11, 32, seed=14))
        tv_ctx = ExecutionContext(GTX980)
        find_bridges_tarjan_vishkin(g, ctx=tv_ctx)
        dfs_ctx = ExecutionContext(XEON_X5650_SINGLE)
        find_bridges_dfs(g, ctx=dfs_ctx)
        assert tv_ctx.elapsed < dfs_ctx.elapsed

    def test_hybrid_does_not_beat_tv_on_dense_graphs(self):
        """Paper §4.3: the hybrid never outperformed TV.

        The claim is driven by per-edge work, which dominates once graphs are
        dense enough; it is checked here on a dense Kronecker graph.  (At the
        heavily scaled-down sizes used in this reproduction, fixed launch
        overheads let the hybrid edge out TV on the *sparsest* road stand-ins
        — a deviation recorded in EXPERIMENTS.md.)
        """
        g, _ = largest_connected_component(rmat_graph(13, 64, seed=15))
        tv_ctx = ExecutionContext(GTX980)
        find_bridges_tarjan_vishkin(g, ctx=tv_ctx)
        hy_ctx = ExecutionContext(GTX980)
        find_bridges_hybrid(g, ctx=hy_ctx)
        assert tv_ctx.elapsed <= hy_ctx.elapsed * 1.05

    def test_hybrid_faster_than_ck_on_high_diameter_graph(self):
        """Paper §4.3: the hybrid 'was often faster than CK', most clearly on
        the large-diameter graphs where BFS is the bottleneck."""
        g, _ = largest_connected_component(road_graph(60, 60, seed=16))
        hy_ctx = ExecutionContext(GTX980)
        find_bridges_hybrid(g, ctx=hy_ctx)
        ck_ctx = ExecutionContext(GTX980)
        find_bridges_ck(g, ctx=ck_ctx)
        assert hy_ctx.elapsed < ck_ctx.elapsed
