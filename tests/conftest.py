"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import signal
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from repro.device import GTX980, XEON_X5650_MULTI, XEON_X5650_SINGLE, ExecutionContext
from repro.graphs import EdgeList, depths_from_parents, parents_to_edgelist
from repro.graphs.generators import (
    barabasi_albert_tree,
    grasp_tree,
    random_attachment_tree,
)
from repro.service.cluster import MAX_RETRIES


@pytest.fixture
def gpu_ctx():
    """A fresh GPU execution context."""
    return ExecutionContext(GTX980, trace=True)


@pytest.fixture
def cpu_ctx():
    """A fresh single-core CPU execution context."""
    return ExecutionContext(XEON_X5650_SINGLE, trace=True)


@pytest.fixture
def multicore_ctx():
    """A fresh multi-core CPU execution context."""
    return ExecutionContext(XEON_X5650_MULTI, trace=True)


@pytest.fixture
def hang_guard():
    """Fail the test after 5 s instead of letting a livelock stall the suite."""

    def on_alarm(signum, frame):
        raise TimeoutError("test ran past its 5 s hang guard")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Tree helpers
# ----------------------------------------------------------------------

#: Hand-built example tree used across tests (mirrors the paper's Figure 1):
#: root 0 with children 2, 3, 4; node 2 with children 1 and 5.
PAPER_FIGURE1_PARENTS = np.asarray([-1, 2, 0, 0, 0, 2], dtype=np.int64)


@pytest.fixture
def figure1_parents():
    """The 6-node example tree from the paper's Figure 1."""
    return PAPER_FIGURE1_PARENTS.copy()


def make_tree(kind: str, n: int, seed: int) -> np.ndarray:
    """Build a test tree of the requested family."""
    if kind == "shallow":
        return random_attachment_tree(n, seed=seed)
    if kind == "deep":
        return grasp_tree(n, max(1, n // 16), seed=seed)
    if kind == "path":
        return grasp_tree(n, 1, seed=seed, relabel=False)
    if kind == "scale-free":
        return barabasi_albert_tree(n, seed=seed)
    if kind == "star":
        parents = np.zeros(n, dtype=np.int64)
        parents[0] = -1
        return parents
    raise ValueError(kind)


TREE_KINDS = ("shallow", "deep", "path", "scale-free", "star")


def subtree_sizes(parents: np.ndarray) -> np.ndarray:
    """Subtree size of every node, folded deepest first (sequential oracle)."""
    size = np.ones(parents.size, dtype=np.int64)
    for node in np.argsort(-depths_from_parents(parents), kind="stable").tolist():
        if parents[node] >= 0:
            size[parents[node]] += size[node]
    return size


# ----------------------------------------------------------------------
# Front-door offenders
# ----------------------------------------------------------------------

#: What can make a query of a block inadmissible.
OFFENDER_KINDS = ("id >= n", "negative id", "uint64 wraps negative", "nan arrival",
                  "+inf arrival", "-inf arrival", "before now", "backwards")


def offending_block(spoilers, n=100, length=7):
    """A clean ``(xs, ys, at)`` block over ``n`` nodes, then spoiled in place.

    ``spoilers`` is ``[(kind, row), ...]``.  ``xs`` is ``uint64`` when a kind
    needs an id that wraps negative as ``int64``, and ``int64`` otherwise.
    """
    wraps = any(kind == "uint64 wraps negative" for kind, _ in spoilers)
    xs = np.arange(1, length + 1).astype(np.uint64 if wraps else np.int64)
    ys = np.arange(10, 10 + length, dtype=np.int64)
    at = 1e-3 + np.arange(length) * 1e-6
    for kind, i in spoilers:
        if kind == "id >= n":
            xs[i] = n
        elif kind == "negative id":
            ys[i] = -1
        elif kind == "uint64 wraps negative":
            xs[i] = 2**63 + 5
        elif kind.endswith("arrival"):
            at[i] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind.split()[0]]
        elif kind == "before now":
            at[i] = -1.0
        else:  # backwards: behind the row before (row 0: behind now, 0.0)
            at[i] = (at[i - 1] if i else 0.0) - 1e-7
    return xs, ys, at


def offender_sweep(length=7):
    """``(spoilers, block)``: each kind first, in the middle and last, then
    each two different kinds at rows 2 and 4, in both orders."""
    singles = [[(kind, i)] for kind in OFFENDER_KINDS
               for i in (0, length // 2, length - 1)]
    pairs = [[(first, 2), (second, 4)] for first in OFFENDER_KINDS
             for second in OFFENDER_KINDS if first != second]
    for spoilers in singles + pairs:
        yield spoilers, offending_block(spoilers, length=length)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> EdgeList:
    """A connected random graph: a random tree plus ``extra_edges`` random edges."""
    parents = random_attachment_tree(n, seed=seed, relabel=False)
    tree = parents_to_edgelist(parents)
    rng = np.random.default_rng(seed + 1)
    eu = rng.integers(0, n, size=extra_edges, dtype=np.int64)
    ev = rng.integers(0, n, size=extra_edges, dtype=np.int64)
    return EdgeList(
        np.concatenate([tree.u, eu]), np.concatenate([tree.v, ev]), n
    )


def spec_config(config):
    """A ``ClusterConfig`` as ``tests/spec_serving.py``'s ``SpecCluster`` reads
    it: its fields, plus the start instant and retry cap the cluster keeps as
    constants (every cluster starts at 0.0)."""
    values = {field.name: getattr(config, field.name) for field in fields(config)}
    return SimpleNamespace(**values, start_time=0.0, max_retries=MAX_RETRIES)
