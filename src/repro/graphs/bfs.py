"""Breadth-first search: level-synchronous GPU-style and sequential CPU-style.

BFS plays two roles in the paper:

* it is the spanning-tree builder of the Chaitanya–Kothapalli bridge
  algorithm (§4.1), whose depth guarantee (≤ 2× minimum) bounds the marking
  work by ``O(m · d)``;
* it is the canonical example of a GPU graph primitive whose performance is
  "very sensitive to the diameter" (§4.3) — each BFS level is a separate
  kernel launch, so a road network with a 9000-hop diameter pays 9000 launch
  latencies regardless of how little work each level does.

The GPU-style implementation below is edge-frontier based and charges exactly
that cost profile; the sequential variant is the CPU reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError
from .csr import CSRGraph

_UNSET = -1


@dataclass
class BFSResult:
    """Result of a BFS traversal from a single source.

    Attributes
    ----------
    source:
        The start node.
    levels:
        Distance from the source for every node (-1 if unreachable).
    parents:
        BFS-tree parent of every node (-1 for the source and unreachable nodes).
    parent_edge_ids:
        Undirected edge id of the tree edge to the parent (-1 where no parent).
    num_levels:
        Number of BFS levels processed (i.e. eccentricity of the source + 1
        within its component).
    """

    source: int
    levels: np.ndarray
    parents: np.ndarray
    parent_edge_ids: np.ndarray
    num_levels: int

    @property
    def reached(self) -> np.ndarray:
        """Boolean mask of nodes reachable from the source."""
        return self.levels >= 0

    def tree_edge_mask(self, num_edges: int) -> np.ndarray:
        """Boolean mask over undirected edge ids marking BFS-tree edges."""
        mask = np.zeros(num_edges, dtype=bool)
        used = self.parent_edge_ids[self.parent_edge_ids >= 0]
        mask[used] = True
        return mask


def bfs_gpu(graph: CSRGraph, source: int,
            *, ctx: Optional[ExecutionContext] = None) -> BFSResult:
    """Level-synchronous, edge-frontier BFS (Merrill-Garland-style substitute).

    Every level performs: frontier expansion (gather all outgoing adjacency
    slots), filtering of already-visited targets, deduplication of the new
    frontier, and a scatter of levels/parents — each charged as bulk kernels.
    The per-level kernel-launch overhead is what makes this slow on
    large-diameter graphs.
    """
    ctx = ensure_context(ctx)
    n = graph.num_nodes
    if not (0 <= source < n):
        raise InvalidGraphError(f"source {source} out of range")
    levels = np.full(n, _UNSET, dtype=np.int64)
    parents = np.full(n, _UNSET, dtype=np.int64)
    parent_edge_ids = np.full(n, _UNSET, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        srcs, tgts, eids = graph.expand_frontier(frontier, ctx=ctx)
        if srcs.size == 0:
            break
        unvisited = levels[tgts] == _UNSET
        cand_t = tgts[unvisited]
        cand_s = srcs[unvisited]
        cand_e = eids[unvisited]
        ctx.kernel(
            "bfs_filter_visited",
            threads=max(int(srcs.size), 1),
            ops=2.0 * srcs.size,
            bytes_read=float(srcs.size) * 16.0,
            bytes_written=float(cand_t.size) * 24.0,
            launches=2,
            random_access=True,
        )
        if cand_t.size == 0:
            break
        # Deduplicate targets discovered multiple times this level (keep the
        # first discoverer; on a GPU this would be an atomic CAS race whose
        # winner is arbitrary — any winner is a valid BFS parent).
        uniq_t, first_idx = np.unique(cand_t, return_index=True)
        new_frontier = uniq_t
        levels[new_frontier] = level + 1
        parents[new_frontier] = cand_s[first_idx]
        parent_edge_ids[new_frontier] = cand_e[first_idx]
        ctx.kernel(
            "bfs_update_frontier",
            threads=max(int(cand_t.size), 1),
            ops=3.0 * cand_t.size,
            bytes_read=float(cand_t.size) * 24.0,
            bytes_written=float(new_frontier.size) * 24.0,
            launches=2,
            random_access=True,
        )
        frontier = new_frontier
        level += 1
        if level > n:  # pragma: no cover - defensive
            raise InvalidGraphError("BFS exceeded n levels; graph structure corrupt")
    return BFSResult(source, levels, parents, parent_edge_ids, level + 1)


def bfs_cpu(graph: CSRGraph, source: int,
            *, ctx: Optional[ExecutionContext] = None) -> BFSResult:
    """Sequential queue-based BFS; the CPU reference with O(n + m) cost."""
    ctx = ensure_context(ctx)
    n = graph.num_nodes
    if not (0 <= source < n):
        raise InvalidGraphError(f"source {source} out of range")
    levels = np.full(n, _UNSET, dtype=np.int64)
    parents = np.full(n, _UNSET, dtype=np.int64)
    parent_edge_ids = np.full(n, _UNSET, dtype=np.int64)
    levels[source] = 0
    indptr = graph.indptr
    indices = graph.indices
    edge_ids = graph.edge_ids
    queue = [source]
    head = 0
    max_level = 0
    levels_list = levels.tolist()
    parents_list = parents.tolist()
    pe_list = parent_edge_ids.tolist()
    indptr_l = indptr.tolist()
    indices_l = indices.tolist()
    eids_l = edge_ids.tolist()
    while head < len(queue):
        x = queue[head]
        head += 1
        lx = levels_list[x]
        for slot in range(indptr_l[x], indptr_l[x + 1]):
            y = indices_l[slot]
            if levels_list[y] == _UNSET:
                levels_list[y] = lx + 1
                parents_list[y] = x
                pe_list[y] = eids_l[slot]
                max_level = max(max_level, lx + 1)
                queue.append(y)
    visited = sum(1 for lv in levels_list if lv != _UNSET)
    touched_edges = int(indptr[-1]) if visited == n else int(
        sum(indptr_l[x + 1] - indptr_l[x] for x in queue)
    )
    ctx.sequential("bfs_cpu", ops=float(visited + touched_edges),
                   bytes_touched=float((visited + touched_edges) * 16), random_access=True)
    return BFSResult(
        source,
        np.asarray(levels_list, dtype=np.int64),
        np.asarray(parents_list, dtype=np.int64),
        np.asarray(pe_list, dtype=np.int64),
        max_level + 1,
    )
