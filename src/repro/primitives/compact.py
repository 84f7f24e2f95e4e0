"""Stream compaction (filter) and related selection primitives.

Stream compaction — keep the elements satisfying a predicate, densely packed —
is the standard GPU idiom for building frontiers (BFS), extracting non-tree
edges (Tarjan–Vishkin, Chaitanya–Kothapalli), and dropping finished work items
(naïve LCA query rounds).  It is charged as a scan over the flags plus a
scatter of the survivors.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..device import ExecutionContext, ensure_context


def compact(values: np.ndarray, mask: np.ndarray,
            *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Return ``values[mask]`` densely packed, with compaction pricing."""
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if values.shape[0] != mask.shape[0] or mask.ndim != 1:
        raise ValueError("mask must be a 1-D boolean array aligned with values")
    out = values[mask]
    n = mask.size
    ctx.kernel(
        "compact",
        threads=max(n, 1),
        ops=2.0 * n,
        bytes_read=float(values.nbytes + mask.nbytes),
        bytes_written=float(out.nbytes),
        launches=3,  # flag scan + scatter (+ count fetch)
    )
    return out


def compact_many(arrays: Sequence[np.ndarray], mask: np.ndarray,
                 *, ctx: Optional[ExecutionContext] = None) -> Tuple[np.ndarray, ...]:
    """Compact several parallel arrays with a single shared mask.

    Charged once (the scan of the mask is shared; each array adds a scatter).
    """
    ctx = ensure_context(ctx)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("mask must be a 1-D boolean array")
    outs = []
    total_in = 0
    total_out = 0
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.shape[0] != mask.shape[0]:
            raise ValueError("all arrays must align with the mask along axis 0")
        out = arr[mask]
        outs.append(out)
        total_in += arr.nbytes
        total_out += out.nbytes
    n = mask.size
    ctx.kernel(
        "compact_many",
        threads=max(n, 1),
        ops=2.0 * n + float(n) * max(len(outs) - 1, 0),
        bytes_read=float(total_in + mask.nbytes),
        bytes_written=float(total_out),
        launches=2 + len(outs),
    )
    return tuple(outs)


def nonzero_indices(mask: np.ndarray,
                    *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Indices of the set positions of a boolean mask (compaction pricing)."""
    ctx = ensure_context(ctx)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("mask must be a 1-D boolean array")
    out = np.flatnonzero(mask)
    ctx.kernel(
        "nonzero_indices",
        threads=max(mask.size, 1),
        ops=2.0 * mask.size,
        bytes_read=float(mask.nbytes),
        bytes_written=float(out.nbytes),
        launches=3,
    )
    return out
