"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.device import GTX980, XEON_X5650_MULTI, XEON_X5650_SINGLE, ExecutionContext
from repro.graphs import EdgeList, parents_to_edgelist
from repro.graphs.generators import (
    barabasi_albert_tree,
    grasp_tree,
    random_attachment_tree,
)


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
