#!/usr/bin/env python
"""Scaling out the LCA query service: replicas, routing and backpressure.

Demonstrates the :mod:`repro.service.cluster` subsystem end to end:

1. build a 4-replica cluster and register datasets — a hot tree replicated
   onto every worker, plus lightly used trees placed by rendezvous hashing
   (one copy each);
2. flood the hot dataset through the columnar ``submit_many`` path and
   compare routing policies: least-outstanding work spreads the load across
   all four copies (~4x one worker's throughput), while consistent-hash
   pins the dataset to one copy for cache affinity and stays at 1x;
3. bound the cluster queue and watch admission control shed the excess with
   the typed ``Overloaded`` error instead of queueing without limit;
4. cross-check every served answer against the binary-lifting oracle.

Run with:  python examples/lca_cluster.py
"""

from __future__ import annotations

import numpy as np

from repro.errors import Overloaded
from repro.graphs.generators import barabasi_albert_tree, random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.service import ClusterConfig, ClusterService

N_REPLICAS = 4
N_NODES = 30_000
N_QUERIES = 40_000
CHUNK = 4_096
CONFIG = ClusterConfig(
    n_replicas=N_REPLICAS, max_batch_size=256, max_wait_s=2e-4
)


def flood(cluster, xs, ys, arrivals):
    """Push the stream through in column blocks; returns all tickets."""
    tickets = []
    for i in range(0, xs.size, CHUNK):
        sl = slice(i, i + CHUNK)
        tickets.append(cluster.submit_many("hot", xs[sl], ys[sl], at=arrivals[sl]))
    cluster.drain()
    return np.concatenate(tickets)


def main() -> None:
    print("=" * 72)
    print("Sharded LCA serving: 4 replicas, load-aware routing, backpressure")
    print("=" * 72)

    hot = random_attachment_tree(N_NODES, seed=1)
    xs, ys = generate_random_queries(N_NODES, N_QUERIES, seed=2)
    # Offered load far beyond one worker's modeled capacity.
    arrivals = np.arange(N_QUERIES, dtype=np.float64) / 4e8
    oracle = BinaryLiftingLCA(hot).query(xs, ys)

    # --- routing policies under the same flood -------------------------
    for policy_name in ("least-outstanding", "consistent-hash"):
        cluster = ClusterService(config=CONFIG.derive(router=policy_name))
        cluster.register_tree("hot", hot, replicas=N_REPLICAS)
        # Two cold datasets, placed by rendezvous hashing (1 copy each;
        # the lazy one is only materialized if it ever gets a query).
        cluster.register_tree("citations", barabasi_albert_tree(5_000, seed=3))
        cluster.register_tree(
            "backup", loader=lambda: random_attachment_tree(5_000, seed=4)
        )
        cluster.warm("hot")

        tickets = flood(cluster, xs, ys, arrivals)
        assert np.array_equal(cluster.results(tickets), oracle)

        stats = cluster.stats()
        print(f"\n--- router: {policy_name} ---")
        print(stats.format())
        placements = {name: cluster.placement(name) for name in ("citations", "backup")}
        print(f"hash placement     : {placements}")

    print("\nall served answers agree with the binary-lifting oracle")

    # --- backpressure ---------------------------------------------------
    print("\n--- bounded cluster queue (max_pending=2048) ---")
    bounded = ClusterService(config=CONFIG.derive(
        max_batch_size=1 << 14, max_wait_s=1.0, max_pending=2_048
    ))
    bounded.register_tree("hot", hot, replicas=N_REPLICAS)
    admitted = 0
    try:
        for i in range(0, N_QUERIES, CHUNK):
            sl = slice(i, i + CHUNK)
            admitted += bounded.submit_many("hot", xs[sl], ys[sl], at=arrivals[sl]).size
    except Overloaded as exc:
        admitted += exc.admitted
        print(f"Overloaded raised  : {exc}")
    stats = bounded.stats()
    print(
        f"admitted/shed      : {admitted} admitted, {stats.queries_shed} shed "
        f"(shed rate {stats.shed_rate:.1%})"
    )
    bounded.drain()
    print(
        f"after drain        : pending={bounded.pending_count()}, "
        f"answered={bounded.stats().queries_answered}"
    )


if __name__ == "__main__":
    main()
