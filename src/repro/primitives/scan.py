"""Prefix-sum (scan) primitives with cost accounting.

On real GPUs the array scan is one of the fastest primitives available
(the paper uses moderngpu's implementation), which is exactly why the paper's
§2.2 optimization — run list ranking *once*, then do every subsequent Euler
tour computation as an array scan — pays off.  Here the actual arithmetic is
delegated to :func:`numpy.cumsum`; the cost model charges the canonical
two-pass work-efficient scan: ``2n`` operations, one streaming read and one
streaming write of the array, and two kernel launches (upsweep + downsweep).
How the host gets the values never enters the charge: a scan derived from
another is booked with :func:`charge_scan`, so this module prices every scan
(``tests/golden/inlabel_charges.json`` pins the charges of the Euler-tour build).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context


def charge_scan(ctx: ExecutionContext, n: int, itemsize: int, name: str) -> None:
    """Book one scan of ``n`` items of ``itemsize`` bytes without running it."""
    ctx.kernel(
        name,
        threads=n,
        ops=2.0 * n,
        bytes_read=2.0 * n * itemsize,
        bytes_written=2.0 * n * itemsize,
        launches=2,
    )


def inclusive_scan(values: np.ndarray, *, out: Optional[np.ndarray] = None,
                   ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Inclusive prefix sum of a 1-D array.

    ``out[i] = values[0] + ... + values[i]``, into ``out`` when given.
    """
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("inclusive_scan expects a 1-D array")
    charge_scan(ctx, values.size, values.dtype.itemsize, "inclusive_scan")
    return np.cumsum(values, out=out)


def exclusive_scan(values: np.ndarray, *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Exclusive prefix sum of a 1-D array.

    ``out[0] = 0`` and ``out[i] = values[0] + ... + values[i-1]`` for ``i > 0``.
    The output has the same length and dtype as the input.
    """
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("exclusive_scan expects a 1-D array")
    charge_scan(ctx, values.size, values.dtype.itemsize, "exclusive_scan")
    out = np.empty_like(values)
    if values.size:
        out[0] = 0
        np.cumsum(values[:-1], out=out[1:])
    return out


def segmented_inclusive_scan(
    values: np.ndarray,
    segment_ids: np.ndarray,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Inclusive prefix sum restarted at every segment boundary.

    ``segment_ids`` must be non-decreasing (elements of one segment are
    contiguous); the scan restarts whenever the segment id changes.  This is
    the classical segmented scan primitive (moderngpu's ``segscan``).
    """
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    segment_ids = np.asarray(segment_ids)
    if values.shape != segment_ids.shape or values.ndim != 1:
        raise ValueError("values and segment_ids must be 1-D arrays of equal length")
    n = values.size
    charge_scan(ctx, n, values.dtype.itemsize + segment_ids.dtype.itemsize,
                "segmented_inclusive_scan")
    if n == 0:
        return values.copy()
    if np.any(segment_ids[1:] < segment_ids[:-1]):
        raise ValueError("segment_ids must be non-decreasing")
    total = np.cumsum(values)
    # Subtract, within each segment, the running total accumulated before the
    # segment started.  boundaries[i] is True where a new segment begins; each
    # element is mapped to the index where its segment starts (a
    # max-accumulate over indices, which is monotone regardless of the sign of
    # the values being scanned).
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = segment_ids[1:] != segment_ids[:-1]
    seg_start_index = np.maximum.accumulate(np.where(boundaries, np.arange(n), 0))
    offset_before_segment = total[seg_start_index] - values[seg_start_index]
    return total - offset_before_segment


def add_scan_offsets(values: np.ndarray, initial: float = 0,
                     *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Exclusive scan shifted by an initial value; helper for bucket offsets."""
    out = exclusive_scan(values, ctx=ctx)
    if initial:
        out = out + initial
    return out
