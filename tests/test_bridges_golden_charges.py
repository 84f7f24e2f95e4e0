"""Golden modeled charges for the Tarjan–Vishkin bridges path.

Modeled time must not notice how the host computes a kernel's result: the
segment-tree descent, the hook-and-compress worklist and the detect-bridges
glue may be realised any way the host likes, but every ``ctx.kernel`` record
(name, threads, ops, bytes, launches — in order) and ``ctx.elapsed`` stay
exactly what ``golden/bridges_charges.json`` holds.  That file was recorded at
the commit before the descent was compacted and the worklist made real::

    python -m tests.test_bridges_golden_charges > tests/golden/bridges_charges.json

Equality is exact, floats included (JSON round-trips Python floats).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bridges import find_bridges_hybrid, find_bridges_tarjan_vishkin
from repro.device import GTX980, ExecutionContext
from repro.graphs import (
    EdgeList,
    connected_components,
    largest_connected_component,
    spanning_forest,
)
from repro.graphs.generators import kron_g500, road_graph
from repro.primitives import SegmentTreeRMQ, SparseTableRMQ

from .conftest import random_connected_graph

GOLDEN_PATH = Path(__file__).parent / "golden" / "bridges_charges.json"


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def adversarial_ranges(n, seed):
    """Empty, single-cell, full and random ranges in one batch.

    The segment-tree charge depends on the round count of the *slowest* lane,
    so the batch mixes lanes that close in zero, one and ``log n`` rounds.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=24)
    b = rng.integers(0, n, size=24)
    cells = rng.integers(0, n, size=8)
    lo = np.concatenate([[0, n - 1, 0, n - 1], cells, np.minimum(a, b)])
    hi = np.concatenate([[n - 1, 0, 0, n - 1], cells, np.maximum(a, b)])
    return lo, hi


def multigraph_with_loops():
    rng = np.random.default_rng(11)
    u = rng.integers(0, 60, size=150)
    v = rng.integers(0, 60, size=150)
    u[::7] = v[::7]  # self-loops
    return EdgeList(np.concatenate([u, u[:40]]), np.concatenate([v, v[:40]]), 64)


GRAPHS = {
    "road": lambda: road_graph(30, 30, seed=3),
    "kron": lambda: kron_g500(8, seed=4),
    "multigraph": multigraph_with_loops,
}

CONNECTED = {
    "random": lambda: random_connected_graph(300, 120, seed=5),
    "road": lambda: largest_connected_component(road_graph(40, 40, seed=6))[0],
    "kron": lambda: largest_connected_component(kron_g500(9, seed=7))[0],
}


def run_rmq(backend, op, n, queries):
    def run(ctx):
        values = np.random.default_rng(n).integers(-10**6, 10**6, size=n)
        rmq = backend(values, op, ctx=ctx)
        built = len(ctx.records)
        answers = [rmq.query(lo, hi, ctx=ctx) for lo, hi in queries(n)]
        return {"build_records": built, "answers": digest(np.concatenate(answers))}
    return run


def run_components(make):
    def run(ctx):
        return {"labels": digest(connected_components(make(), ctx=ctx))}
    return run


def run_forest(make):
    def run(ctx):
        forest = spanning_forest(make(), ctx=ctx)
        return {
            "labels": digest(forest.labels),
            "tree_edge_mask": digest(forest.tree_edge_mask),
            "tree_edges": int(forest.tree_edge_mask.sum()),
            "num_components": forest.num_components,
        }
    return run


def run_bridges(algorithm, make, **kwargs):
    def run(ctx):
        result = algorithm(make(), ctx=ctx, **kwargs)
        return {
            "bridge_mask": digest(result.bridge_mask),
            "breakdown": ctx.breakdown(),
        }
    return run


CASES = {}
for backend in (SegmentTreeRMQ, SparseTableRMQ):
    for n in (1, 16, 37, 1000, 5000):  # 5000: a level big enough for its own launch
        op = "min" if n % 2 else "max"
        CASES[f"rmq/{backend.__name__}/{op}/n={n}"] = run_rmq(
            backend, op, n,
            lambda n: [
                adversarial_ranges(n, seed=1),
                (np.arange(n), np.arange(n)),                      # closes in one round
                (np.asarray([n - 1]), np.asarray([0])),            # nothing but empties
                (np.zeros(3, dtype=np.int64), np.full(3, n - 1)),  # full ranges only
            ],
        )
for name, make in GRAPHS.items():
    CASES[f"components/{name}"] = run_components(make)
    CASES[f"forest/{name}"] = run_forest(make)
for name, make in CONNECTED.items():
    for rmq_backend in ("segment-tree", "sparse-table"):
        CASES[f"tv/{rmq_backend}/{name}"] = run_bridges(
            find_bridges_tarjan_vishkin, make, rmq_backend=rmq_backend
        )
    CASES[f"hybrid/{name}"] = run_bridges(find_bridges_hybrid, make)
CASES["tv/segment-tree/random/root=17"] = run_bridges(
    find_bridges_tarjan_vishkin, CONNECTED["random"], root=17
)


def observe(case):
    ctx = ExecutionContext(GTX980, trace=True)
    observed = CASES[case](ctx)
    observed["elapsed"] = ctx.elapsed
    observed["records"] = [
        [r.name, r.threads, r.ops, r.bytes_read, r.bytes_written, r.launches]
        for r in ctx.records
    ]
    return json.loads(json.dumps(observed))


@pytest.mark.parametrize("case", sorted(CASES))
def test_charges_are_bit_identical(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    observed = observe(case)
    assert observed["records"] == golden[case]["records"]
    assert observed == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: observe(case) for case in sorted(CASES)}, indent=1))
