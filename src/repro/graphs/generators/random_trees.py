"""Synthetic tree generators used by the LCA experiments (paper §3.2).

Three families, exactly as described in the paper:

* **Uniform random attachment** (*shallow* trees): node 0 is the root and the
  parent of node ``i`` is uniform over ``{0, …, i-1}``; expected average depth
  is ``ln n``.
* **Grasp-γ trees** (*deep* trees): the parent of node ``i`` is uniform over
  ``{max(i-γ, 0), …, i-1}``.  ``γ = 1`` is deterministically a path,
  ``γ = ∞`` recovers the shallow distribution; otherwise the expected average
  depth is ``≈ n / (γ + 1)``.
* **Barabási–Albert trees** (*scale-free*): the parent of node ``i`` is chosen
  with probability proportional to current degree (preferential attachment),
  yielding power-law degrees and very shallow trees.

All generators can optionally apply the random node relabeling the paper uses
so identifiers do not leak structural information.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import ConfigurationError
from ..trees import NO_PARENT, random_relabel_tree

#: Symbolic "infinite grasp" value accepted by :func:`grasp_tree`.
INFINITE_GRASP = float("inf")


def _finalize(parents: np.ndarray, relabel: bool, seed: int) -> np.ndarray:
    if relabel:
        parents, _ = random_relabel_tree(parents, seed=seed + 0x5EED)
    return parents


def random_attachment_tree(n: int, *, seed: int = 0, relabel: bool = True) -> np.ndarray:
    """Uniform random attachment tree on ``n`` nodes (the paper's shallow trees).

    Returns a parent array with ``parents[root] == -1``.
    """
    if n <= 0:
        raise ConfigurationError("tree size must be positive")
    rng = np.random.default_rng(seed)
    parents = np.full(n, NO_PARENT, dtype=np.int64)
    if n > 1:
        i = np.arange(1, n, dtype=np.int64)
        parents[1:] = (rng.random(n - 1) * i).astype(np.int64)
    return _finalize(parents, relabel, seed)


def grasp_tree(n: int, grasp: float, *, seed: int = 0, relabel: bool = True) -> np.ndarray:
    """Grasp-γ tree on ``n`` nodes (the paper's depth-controlled trees).

    ``grasp`` may be ``float('inf')`` to recover the shallow distribution.
    """
    if n <= 0:
        raise ConfigurationError("tree size must be positive")
    if grasp != INFINITE_GRASP and (not float(grasp).is_integer() or grasp < 1):
        raise ConfigurationError("grasp must be a positive integer or infinity")
    if grasp == INFINITE_GRASP:
        return random_attachment_tree(n, seed=seed, relabel=relabel)
    g = int(grasp)
    rng = np.random.default_rng(seed)
    parents = np.full(n, NO_PARENT, dtype=np.int64)
    if n > 1:
        i = np.arange(1, n, dtype=np.int64)
        lo = np.maximum(i - g, 0)
        span = i - lo
        parents[1:] = lo + (rng.random(n - 1) * span).astype(np.int64)
    return _finalize(parents, relabel, seed)


def barabasi_albert_tree(n: int, *, seed: int = 0, relabel: bool = True) -> np.ndarray:
    """Barabási–Albert (preferential attachment) tree on ``n`` nodes.

    Uses the standard repeated-endpoint trick: maintaining a list with every
    edge endpoint recorded once makes sampling an element uniformly from the
    list equivalent to sampling a node proportionally to its degree.
    """
    if n <= 0:
        raise ConfigurationError("tree size must be positive")
    rng = np.random.default_rng(seed)
    parents = np.full(n, NO_PARENT, dtype=np.int64)
    if n > 1:
        # endpoint pool: each attachment appends the chosen parent and the new
        # child, so node degree == multiplicity in the pool (root starts with
        # one virtual entry).
        pool = np.empty(2 * n, dtype=np.int64)
        pool[0] = 0
        pool_size = 1
        # Draw all random numbers up front for speed; index into the pool as
        # it grows (pool_size is deterministic: 2i - 1 before inserting node i).
        draws = rng.random(n - 1)
        parents_list = parents.tolist()
        pool_list = pool.tolist()
        for i in range(1, n):
            j = int(draws[i - 1] * pool_size)
            p = pool_list[j]
            parents_list[i] = p
            pool_list[pool_size] = p
            pool_list[pool_size + 1] = i
            pool_size += 2
        parents = np.asarray(parents_list, dtype=np.int64)
    return _finalize(parents, relabel, seed)


def grasp_for_target_depth(n: int, target_average_depth: float) -> float:
    """Grasp value whose expected average depth is ``target_average_depth``.

    Returns infinity when the target is at or below the shallow-tree depth
    ``ln n``; used by the Figure 5 depth sweep to pick γ values.
    """
    if n <= 0:
        raise ConfigurationError("tree size must be positive")
    if target_average_depth <= math.log(max(n, 2)):
        return INFINITE_GRASP
    gamma = n / target_average_depth - 1.0
    return max(1.0, round(gamma))
