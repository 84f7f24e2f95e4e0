"""Ablation benchmarks for the design choices the paper makes in prose.

These do not correspond to a table or figure in the paper; they quantify the
engineering decisions the paper describes in prose:

* Wei–JaJa list ranking vs. classical Wyllie pointer jumping (§2.2: "performs
  much better than the classical pointer jumping technique");
* ranking the Euler tour once and then using array scans vs. running a
  list-ranking-style computation for every statistic (§2.2's key optimization,
  motivated by the reported 7–8× scan-vs-list-ranking gap);
* segment-tree vs. sparse-table RMQ backend inside Tarjan–Vishkin;
* the naïve-LCA pointer-jumping batching (5 jumps per global synchronization,
  §3.1).
"""

import numpy as np

from repro.device import ExecutionContext, GTX980
from repro.euler import build_euler_tour_from_parents, compute_tree_stats
from repro.experiments import format_rows
from repro.graphs.generators import random_attachment_tree, road_graph_with_target_size
from repro.graphs import largest_connected_component
from repro.lca import pointer_jump_levels
from repro.primitives import sequential_rank, wei_jaja_rank, wyllie_rank
from repro.bridges import find_bridges_tarjan_vishkin

from bench_util import BENCH_SCALE, publish, run_once


def _random_list(n: int, seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[perm[:-1]] = perm[1:]
    return succ, int(perm[0])


def test_ablation_list_ranking(benchmark):
    """Wei–JaJa vs Wyllie vs sequential list ranking on a random list."""
    n = int(262_144 * BENCH_SCALE)
    succ, head = _random_list(n, seed=1)

    def run():
        rows = []
        for label, fn in (("Wei-JaJa", wei_jaja_rank), ("Wyllie", wyllie_rank),
                          ("Sequential walk", sequential_rank)):
            ctx = ExecutionContext(GTX980)
            fn(succ, head, ctx=ctx)
            rows.append({"algorithm": label, "modeled_ms": round(ctx.elapsed * 1e3, 3),
                         "modeled_ops": int(ctx.total_ops),
                         "kernel_launches": ctx.total_launches})
        return rows

    rows = run_once(benchmark, run)
    publish(benchmark, "ablation_list_ranking",
            format_rows(rows, title=f"Ablation: list ranking a {n}-element list (GPU model)"))


def test_ablation_tour_rank_once_then_scan(benchmark):
    """The §2.2 optimization: one list ranking + k array scans vs k list rankings."""
    n = int(131_072 * BENCH_SCALE)
    parents = random_attachment_tree(n, seed=2)
    num_statistics = 4  # preorder, depth, subtree size, parents

    def run():
        # Strategy A (the paper's): rank the tour once, then every statistic is a scan.
        ctx_a = ExecutionContext(GTX980)
        tour = build_euler_tour_from_parents(parents, ctx=ctx_a)
        compute_tree_stats(tour, ctx=ctx_a)
        # Strategy B (the naive alternative): pay a fresh list ranking per statistic.
        ctx_b = ExecutionContext(GTX980)
        tour_b = build_euler_tour_from_parents(parents, ctx=ctx_b)
        for k in range(num_statistics - 1):
            wei_jaja_rank(tour_b.succ, tour_b.head, seed=k, ctx=ctx_b)
        compute_tree_stats(tour_b, ctx=ctx_b)
        return [
            {"strategy": "rank once + array scans", "modeled_ms": round(ctx_a.elapsed * 1e3, 3)},
            {"strategy": f"{num_statistics} list rankings", "modeled_ms": round(ctx_b.elapsed * 1e3, 3)},
        ]

    rows = run_once(benchmark, run)
    publish(benchmark, "ablation_tour_scans",
            format_rows(rows, title=f"Ablation: Euler tour statistics on a {n}-node tree"))


def test_ablation_rmq_backend(benchmark):
    """Tarjan–Vishkin with a segment tree (paper) vs a sparse table."""
    graph, _ = road_graph_with_target_size(int(40_000 * BENCH_SCALE), seed=3)
    graph, _ = largest_connected_component(graph)

    def run():
        rows = []
        for backend in ("segment-tree", "sparse-table"):
            ctx = ExecutionContext(GTX980)
            find_bridges_tarjan_vishkin(graph, rmq_backend=backend, ctx=ctx)
            rows.append({"rmq_backend": backend, "modeled_ms": round(ctx.elapsed * 1e3, 3)})
        return rows

    rows = run_once(benchmark, run)
    publish(benchmark, "ablation_rmq_backend",
            format_rows(rows, title=f"Ablation: TV low/high RMQ backend "
                                    f"(road graph, n={graph.num_nodes})"))


def test_ablation_jump_batching(benchmark):
    """Naïve-LCA level preprocessing: 1 vs 5 pointer jumps per global sync."""
    n = int(262_144 * BENCH_SCALE)
    parents = random_attachment_tree(n, seed=4)

    def run():
        rows = []
        for batch in (1, 5):
            ctx = ExecutionContext(GTX980)
            pointer_jump_levels(parents, jump_batch=batch, ctx=ctx)
            rows.append({"jumps_per_sync": batch,
                         "modeled_ms": round(ctx.elapsed * 1e3, 3),
                         "kernel_launches": ctx.total_launches})
        return rows

    rows = run_once(benchmark, run)
    publish(benchmark, "ablation_jump_batching",
            format_rows(rows, title=f"Ablation: naïve-LCA level computation on a "
                                    f"{n}-node shallow tree"))
