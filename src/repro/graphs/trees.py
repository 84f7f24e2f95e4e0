"""Rooted-tree utilities based on parent arrays.

The paper's LCA experiments describe trees "as an array of parents — i.e.
node ``P[i]`` is the parent of node ``i`` for every ``i`` except the root"
(§3.2).  This module provides validation, conversions between parent arrays
and edge lists, sequential reference computations of depths/orders (used as
test oracles), and node-relabeling helpers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..boundary import node_ids, parent_ids
from ..errors import InvalidGraphError, NotATreeError
from .edgelist import EdgeList

#: Sentinel parent value used for the root.
NO_PARENT = -1


def validate_parents(parents: np.ndarray) -> int:
    """Validate a parent array and return the root node.

    A valid parent array has exactly one entry equal to ``NO_PARENT`` (the
    root), every other entry in ``[0, n)``, and no cycles.
    """
    parents = parent_ids(parents)
    n = parents.size
    if n == 0:
        raise NotATreeError("a tree must have at least one node")
    roots = np.flatnonzero(parents == NO_PARENT)
    if roots.size != 1:
        raise NotATreeError(f"expected exactly one root, found {roots.size}")
    root = int(roots[0])
    others = parents[parents != NO_PARENT]
    if others.size and (others.min() < 0 or others.max() >= n):
        raise NotATreeError("parent indices must lie in [0, n)")
    # Cycle check: every node must reach the root.  Computed with pointer
    # doubling so the check is O(n log n) rather than O(n^2).
    ptr = parents.copy()
    ptr[root] = root
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        ptr = ptr[ptr]
    if not np.all(ptr == root):
        raise NotATreeError("parent array contains a cycle or unreachable nodes")
    return root


def tree_root(parents: np.ndarray) -> int:
    """Return the root of a parent array without the full validation pass."""
    parents = parent_ids(parents)
    roots = np.flatnonzero(parents == NO_PARENT)
    if roots.size != 1:
        raise NotATreeError(f"expected exactly one root, found {roots.size}")
    return int(roots[0])


def parents_to_edgelist(parents: np.ndarray) -> EdgeList:
    """Convert a parent array into an undirected edge list (child, parent)."""
    parents = parent_ids(parents)
    root = tree_root(parents)
    children = np.flatnonzero(parents != NO_PARENT)
    del root
    return EdgeList(children, parents[children], parents.size)


def depths_from_parents(parents: np.ndarray) -> np.ndarray:
    """Depth (distance from the root) of every node; sequential reference.

    Runs in O(n) using memoized path walks; intended as a test oracle and for
    dataset characterization, not as a measured algorithm.
    """
    parents = parent_ids(parents)
    n = parents.size
    root = tree_root(parents)
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    parents_list = parents.tolist()
    depth_list = depth.tolist()
    for start in range(n):
        if depth_list[start] >= 0:
            continue
        path = []
        node = start
        while depth_list[node] < 0:
            path.append(node)
            node = parents_list[node]
        base = depth_list[node]
        for offset, p in enumerate(reversed(path), start=1):
            depth_list[p] = base + offset
    return np.asarray(depth_list, dtype=np.int64)


def relabel_tree(parents: np.ndarray, permutation: np.ndarray,
                 ) -> np.ndarray:
    """Relabel nodes of a tree: node ``i`` becomes ``permutation[i]``.

    Returns the new parent array.  The paper applies a random permutation to
    every generated tree "so that the tree structure is maintained but the
    identifiers do not leak any information" (§3.2).
    """
    parents = parent_ids(parents)
    permutation = node_ids(permutation, "permutation")
    n = parents.size
    if permutation.shape != (n,):
        raise InvalidGraphError("permutation must have length n")
    if np.unique(permutation).size != n:
        raise InvalidGraphError("permutation must be a bijection on [0, n)")
    new_parents = np.full(n, NO_PARENT, dtype=np.int64)
    has_parent = parents != NO_PARENT
    new_parents[permutation[has_parent]] = permutation[parents[has_parent]]
    new_parents[permutation[~has_parent]] = NO_PARENT
    return new_parents


def random_relabel_tree(parents: np.ndarray, *, seed: int = 0
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a uniformly random node relabeling; returns (new_parents, permutation)."""
    parents = parent_ids(parents)
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(parents.size).astype(np.int64)
    return relabel_tree(parents, permutation), permutation


def brute_force_lca(parents: np.ndarray, x: int, y: int) -> int:
    """Reference LCA of two nodes by explicit ancestor-set intersection."""
    parents = parent_ids(parents)
    n = parents.size
    if not (0 <= x < n and 0 <= y < n):
        raise InvalidGraphError("query nodes out of range")
    ancestors = set()
    node = x
    while node != NO_PARENT:
        ancestors.add(node)
        node = int(parents[node])
    node = y
    while node not in ancestors:
        node = int(parents[node])
        if node == NO_PARENT:  # pragma: no cover - impossible in a valid tree
            raise NotATreeError("query nodes are not in the same tree")
    return node


def generate_random_queries(n: int, q: int, *, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``q`` LCA queries uniformly at random from ``[0, n) × [0, n)``."""
    if n <= 0:
        raise InvalidGraphError("need at least one node to generate queries")
    if q < 0:
        raise ValueError("query count must be non-negative")
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n, size=q, dtype=np.int64)
    y = rng.integers(0, n, size=q, dtype=np.int64)
    return x, y
