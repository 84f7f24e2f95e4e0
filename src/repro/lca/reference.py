"""Reference LCA implementations used as test oracles.

These are deliberately simple and carry **no cost accounting** — they exist so
the measured algorithms (Inlabel, naïve, RMQ-based) can be cross-checked on
trees large enough that the O(n·q·depth) brute force becomes impractical.
"""

from __future__ import annotations


import numpy as np

from ..boundary import parent_ids, query_columns
from ..errors import InvalidQueryError
from ..graphs.trees import depths_from_parents, tree_root, validate_parents

__all__ = ["BinaryLiftingLCA", "brute_force_lca_batch"]


class BinaryLiftingLCA:
    """Textbook binary-lifting LCA: O(n log n) table, O(log n) per query.

    Not one of the paper's algorithms — a pure oracle for the test suite.
    """

    name = "Binary lifting (oracle)"

    def __init__(self, parents: np.ndarray, *, validate: bool = False) -> None:
        parents = parent_ids(parents)
        if validate:
            validate_parents(parents)
        self.parents = parents
        self.root = tree_root(parents)
        self.depth = depths_from_parents(parents)
        n = parents.size
        self.n = n
        levels = max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)
        up = np.empty((levels, n), dtype=np.int64)
        base = parents.copy()
        base[self.root] = self.root
        up[0] = base
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        self.up = up
        self.levels = levels

    def query(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Answer a batch of LCA queries (vectorized binary lifting)."""
        xs, ys = query_columns(xs, ys)
        xs, ys = xs.copy(), ys.copy()
        if xs.size == 0:
            return np.empty(0, dtype=np.int64)
        if min(xs.min(), ys.min()) < 0 or max(xs.max(), ys.max()) >= self.n:
            raise InvalidQueryError("query nodes out of range")
        depth = self.depth
        # Ensure xs is the deeper endpoint, then lift it level by level.
        swap = depth[xs] < depth[ys]
        xs[swap], ys[swap] = ys[swap], xs[swap].copy()
        diff = depth[xs] - depth[ys]
        for k in range(self.levels - 1, -1, -1):
            lift = (diff >> k) & 1 == 1
            if lift.any():
                xs[lift] = self.up[k][xs[lift]]
        equal = xs == ys
        for k in range(self.levels - 1, -1, -1):
            differs = ~equal & (self.up[k][xs] != self.up[k][ys])
            if differs.any():
                xs[differs] = self.up[k][xs[differs]]
                ys[differs] = self.up[k][ys[differs]]
        out = np.where(equal, xs, self.up[0][xs])
        return out


def brute_force_lca_batch(parents: np.ndarray, xs, ys) -> np.ndarray:
    """Answer a batch of LCA queries by explicit ancestor-set intersection.

    O(depth) per query; only suitable for small test trees.
    """
    from ..graphs.trees import brute_force_lca

    xs, ys = query_columns(xs, ys)
    return np.asarray(
        [brute_force_lca(parents, int(x), int(y)) for x, y in zip(xs, ys)],
        dtype=np.int64,
    )
