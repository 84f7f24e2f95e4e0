"""The naïve GPU LCA algorithm of Martins et al. (paper §3.1).

One thread per query walks the two query nodes up the tree until the paths
meet.  Preprocessing only computes node levels (distances from the root), done
with pointer jumping; each query then

1. lifts the deeper endpoint, node by node, until both endpoints are at the
   same level, and
2. lifts both endpoints together until they coincide.

The per-query cost is proportional to the tree distance between the two query
nodes — constant-ish on shallow trees, catastrophic on deep ones — which is
exactly the trade-off the paper's Figures 3–5 quantify.

The data-parallel simulation below processes all queries in lockstep rounds;
each round is one kernel over the still-active queries, so the modeled cost
grows with the *sum* of path lengths (work) while the round count grows with
the *maximum* path length (depth), matching the real GPU behaviour of the
algorithm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..boundary import parent_ids, query_columns
from ..device import ExecutionContext, ensure_context
from ..errors import InvalidQueryError
from ..graphs.trees import tree_root, validate_parents

__all__ = ["NaiveGPULCA", "pointer_jump_levels"]


def pointer_jump_levels(parents: np.ndarray, *, jump_batch: int = 5,
                        ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Compute node levels by pointer jumping (doubling).

    ``O(log depth)`` doubling rounds, ``O(n log depth)`` total work — not
    work-optimal, but, as the paper notes, never the bottleneck in practice.
    ``jump_batch`` models the paper's optimization of performing several jumps
    per kernel launch before synchronizing globally: it only affects the
    number of kernel launches charged, not the result.
    """
    ctx = ensure_context(ctx)
    parents = parent_ids(parents)
    n = parents.size
    root = tree_root(parents)
    if jump_batch < 1:
        raise ValueError("jump_batch must be at least 1")

    ptr = parents.copy()
    ptr[root] = root
    hops = np.where(parents >= 0, 1, 0).astype(np.int64)
    rounds = 0
    pending_launch_rounds = 0
    while True:
        at_root = ptr == root
        if at_root.all():
            break
        hops = hops + np.where(at_root, 0, hops[ptr])
        ptr = ptr[ptr]
        rounds += 1
        pending_launch_rounds += 1
        # Charge a kernel; a batch of `jump_batch` rounds shares one launch.
        launches = 1 if pending_launch_rounds == 1 else 0
        if pending_launch_rounds == jump_batch:
            pending_launch_rounds = 0
        ctx.kernel(
            "naive_level_jump",
            threads=n,
            ops=3.0 * n,
            bytes_read=3.0 * n * 8,
            bytes_written=2.0 * n * 8,
            launches=launches,
            random_access=True,
        )
        if rounds > 2 * int(np.ceil(np.log2(max(n, 2)))) + 4:  # pragma: no cover
            raise RuntimeError("level pointer jumping did not converge")
    return hops


class NaiveGPULCA:
    """Naïve walk-up LCA with level preprocessing (Martins et al.).

    Parameters
    ----------
    parents:
        Tree as a parent array (``-1`` marks the root).
    ctx:
        Execution context charged with the preprocessing (pointer jumping).
    jump_batch:
        Pointer jumps performed per kernel launch during preprocessing
        (paper's empirical optimization; default 5).
    validate:
        Validate the parent array up front.
    """

    name = "GPU Naive"

    def __init__(self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None,
                 jump_batch: int = 5, validate: bool = False) -> None:
        ctx = ensure_context(ctx)
        parents = parent_ids(parents)
        if validate:
            validate_parents(parents)
        self.parents = parents
        self.root = tree_root(parents)
        with ctx.phase("preprocessing"):
            self.levels = pointer_jump_levels(parents, jump_batch=jump_batch, ctx=ctx)

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return int(self.parents.size)

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries by lockstep tree walks.

        The modeled cost is one kernel per walk round over the still-active
        queries; total work equals the sum of tree distances between query
        endpoints, the defining characteristic of the naïve algorithm.
        """
        ctx = ensure_context(ctx)
        xs, ys = query_columns(xs, ys)
        xs, ys = xs.copy(), ys.copy()
        q = xs.size
        if q == 0:
            return np.empty(0, dtype=np.int64)
        n = self.n
        if xs.min() < 0 or xs.max() >= n or ys.min() < 0 or ys.max() >= n:
            raise InvalidQueryError("query nodes out of range")

        parents = self.parents
        levels = self.levels
        answer = np.empty(q, dtype=np.int64)
        with ctx.phase("queries"):
            # On the device this whole batch is ONE kernel: each query thread
            # walks its two pointers up inside the kernel.  The lockstep rounds
            # below are a vectorization artifact; the cost is charged once with
            # the total number of walk steps as the work.
            active_idx = np.arange(q, dtype=np.int64)
            ax = xs
            ay = ys
            rounds = 0
            total_steps = 0
            while active_idx.size:
                lx = levels[ax]
                ly = levels[ay]
                done = ax == ay
                if done.any():
                    answer[active_idx[done]] = ax[done]
                    keep = ~done
                    active_idx = active_idx[keep]
                    ax = ax[keep]
                    ay = ay[keep]
                    lx = lx[keep]
                    ly = ly[keep]
                if active_idx.size == 0:
                    break
                # Lift the deeper endpoint; when levels are equal lift both.
                move_x = lx >= ly
                move_y = ly >= lx
                ax = np.where(move_x, parents[ax], ax)
                ay = np.where(move_y, parents[ay], ay)
                total_steps += int(active_idx.size)
                rounds += 1
                if rounds > 2 * n + 4:  # pragma: no cover - defensive
                    raise RuntimeError("naive LCA query walk did not terminate")
            ctx.kernel(
                "naive_query_walk",
                threads=q,
                ops=4.0 * q + 4.0 * total_steps,
                # Each walk step dereferences a parent pointer and a level, both
                # uncoalesced (a 32-byte transaction each on real hardware).
                bytes_read=16.0 * q + 24.0 * total_steps,
                bytes_written=8.0 * q,
                launches=1,
                divergent=True,
                random_access=True,
            )
        return answer
