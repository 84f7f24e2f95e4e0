"""The non-bridge marking phase shared by the CK and hybrid algorithms.

Given a rooted spanning tree (parents + levels) of a connected graph, every
non-tree edge ``{x, y}`` closes a cycle consisting of the tree paths from
``x`` and ``y`` to their LCA.  Every tree edge on such a cycle cannot be a
bridge; conversely a tree edge on no cycle is a bridge.  The marking phase
therefore walks, for every non-tree edge in parallel, both endpoints up to the
LCA and marks every tree edge traversed; unmarked tree edges are the bridges
(Chaitanya–Kothapalli).

The simulation processes all walks in lockstep rounds: one kernel per round
over the still-active walks, so the modeled work equals the total length of
all walked paths — ``O(m · d)`` in the worst case, which is the cost profile
that makes the algorithm diameter-sensitive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..boundary import node_ids, parent_ids
from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError

__all__ = ["mark_cycle_edges"]


def mark_cycle_edges(parents: np.ndarray, levels: np.ndarray,
                     nontree_u: np.ndarray, nontree_v: np.ndarray,
                     *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Mark every tree edge lying on a cycle closed by a non-tree edge.

    Parameters
    ----------
    parents, levels:
        Rooted spanning tree: parent (-1 at the root) and depth of every node.
    nontree_u, nontree_v:
        Endpoints of the non-tree edges (parallel arrays).

    Returns
    -------
    numpy.ndarray of bool, length ``n``:
        ``marked[c]`` is true when the tree edge from ``c`` to ``parents[c]``
        lies on some cycle (i.e. is **not** a bridge).  The root's entry is
        meaningless and always false.
    """
    ctx = ensure_context(ctx)
    parents = parent_ids(parents)
    levels = node_ids(levels, "levels")
    n = parents.size
    nontree_u = node_ids(nontree_u, "non-tree endpoints")
    nontree_v = node_ids(nontree_v, "non-tree endpoints")
    if nontree_u.shape != nontree_v.shape:
        raise InvalidGraphError("non-tree endpoint arrays must align")
    marked = np.zeros(n, dtype=bool)
    if nontree_u.size == 0:
        return marked

    ax = nontree_u.copy()
    ay = nontree_v.copy()
    # Drop self-loops immediately; they close trivial cycles through no tree edge.
    keep = ax != ay
    ax, ay = ax[keep], ay[keep]
    num_walks = int(ax.size)

    # On the device the marking phase is ONE kernel: a thread per non-tree
    # edge walks both endpoints to the LCA inside the kernel.  The lockstep
    # rounds below exist only to vectorize the simulation; the cost is charged
    # once, with the total number of walk steps (= total marked-path length,
    # the O(m·d) quantity) as the work.
    rounds = 0
    total_steps = 0
    while ax.size:
        lx = levels[ax]
        ly = levels[ay]
        move_x = lx >= ly
        move_y = ly >= lx
        # Mark the tree edges being traversed (the edge from the moving node
        # to its parent is identified by the moving node).
        marked[ax[move_x]] = True
        marked[ay[move_y]] = True
        ax = np.where(move_x, parents[ax], ax)
        ay = np.where(move_y, parents[ay], ay)
        total_steps += int(ax.size)
        still = ax != ay
        if not still.all():
            ax = ax[still]
            ay = ay[still]
        rounds += 1
        if rounds > 2 * n + 4:  # pragma: no cover - defensive
            raise InvalidGraphError("marking walk did not terminate; tree inputs corrupt")
    ctx.kernel(
        "ck_mark_walk",
        threads=max(num_walks, 1),
        ops=4.0 * num_walks + 5.0 * total_steps,
        bytes_read=16.0 * num_walks + 24.0 * total_steps,
        bytes_written=2.0 * total_steps,
        launches=1,
        divergent=True,
        random_access=True,
    )
    return marked
