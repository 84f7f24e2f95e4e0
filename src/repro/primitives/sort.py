"""Sorting primitives with radix-sort cost accounting.

DCEL construction (paper §2.1) needs a lexicographic sort of the directed
half-edge array — the single most expensive step of building an Euler tour.
The paper uses moderngpu's mergesort; GPUs more commonly use LSD radix sort
for integer keys, and that is what the cost model charges: a fixed number of
passes, each reading and writing the key/value payload once plus a histogram
and scan per pass.  The actual ordering is computed with ``numpy`` sorts so
results are exact; how the host computes it never enters the charge (so
:func:`sort_pairs` decodes its sorted column from the keys it sorted), and
``tests/golden/inlabel_charges.json`` pins the charges of the Euler-tour build.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..device import ExecutionContext, ensure_context

#: Number of radix passes charged for a 32-bit key sorted 8 bits at a time.
RADIX_PASSES_32 = 4
#: Bits handled per radix pass (used only to decide the number of passes).
RADIX_BITS_PER_PASS = 8


def _radix_passes_for(max_key: int) -> int:
    """Number of 8-bit radix passes needed to sort keys in ``[0, max_key]``."""
    if max_key <= 0:
        return 1
    bits = int(max_key).bit_length()
    return max(1, -(-bits // RADIX_BITS_PER_PASS))


def _charge_radix_sort(ctx: ExecutionContext, n: int, payload_bytes: int,
                       passes: int, name: str) -> None:
    if n == 0:
        return
    ctx.kernel(
        name,
        threads=n,
        ops=float(passes) * 3.0 * n,
        bytes_read=float(passes) * n * payload_bytes,
        bytes_written=float(passes) * n * payload_bytes,
        launches=3 * passes,  # histogram + scan + scatter per pass
        # LSD radix scatters are bucketed and reasonably coalesced on GPUs, so
        # no scattered-access penalty is applied on top of the per-pass traffic.
        random_access=False,
    )


def sort_values(values: np.ndarray, *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Sort a 1-D integer array ascending (stable), with radix-sort pricing."""
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("sort_values expects a 1-D array")
    passes = _radix_passes_for(int(values.max()) if values.size else 0)
    _charge_radix_sort(ctx, values.size, values.dtype.itemsize, passes, "radix_sort")
    return np.sort(values, kind="stable")


def argsort_values(values: np.ndarray, *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Stable argsort of a 1-D array, with radix-sort pricing (key + index payload)."""
    ctx = ensure_context(ctx)
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("argsort_values expects a 1-D array")
    passes = _radix_passes_for(int(values.max()) if values.size else 0)
    _charge_radix_sort(ctx, values.size, values.dtype.itemsize + 8, passes, "radix_argsort")
    return np.argsort(values, kind="stable")


def sort_pairs(
    first: np.ndarray,
    second: np.ndarray,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stably sort pairs ``(first[i], second[i])`` lexicographically.

    Returns ``(first[order], order)``, ``order`` being the permutation applied,
    so callers can maintain cross-array pointers exactly as the DCEL
    construction requires ("each element keeps an up-to-date pointer to its
    copy in the other array").  No caller reads the sorted second column.

    The cost model charges two chained radix sorts (sort by ``second``, then
    stably by ``first``), the standard way of lexicographically sorting pairs
    of bounded integers on a GPU.  The host packs integer columns whose
    observed ranges leave room, with the position, into one ``int64`` per pair
    — ``(first, second, position)`` from the high bits down — and value-sorts
    them (vectorised, where an indirect sort chases pointers): the keys are
    distinct, their low bits are ``order`` and their high bits decode to the
    sorted first column in place.  Other columns take ``np.lexsort``.
    """
    ctx = ensure_context(ctx)
    first = np.asarray(first)
    second = np.asarray(second)
    if first.shape != second.shape or first.ndim != 1:
        raise ValueError("sort_pairs expects two 1-D arrays of equal length")
    n = first.size
    passes = _radix_passes_for(int(first.max()) if n else 0) + _radix_passes_for(
        int(second.max()) if n else 0
    )
    _charge_radix_sort(ctx, n, first.dtype.itemsize + second.dtype.itemsize + 8,
                       passes, "radix_sort_pairs")
    if n and first.dtype.kind in "iu" and second.dtype.kind in "iu":
        lo1, lo2 = first.min(), second.min()
        bits2 = (int(second.max()) - int(lo2)).bit_length()
        bits_pos = (n - 1).bit_length()
        if (int(first.max()) - int(lo1)).bit_length() + bits2 + bits_pos <= 63:
            # int64 arithmetic wraps, so a uint64 column cast to int64 still
            # yields the true (< 2**63) offsets from its minimum, and adding
            # `second` before taking its minimum off comes out the same;
            # adding `lo1` back wraps to the column's own bits.
            key = first.astype(np.int64)
            key -= lo1.astype(np.int64)
            key <<= bits2
            key += second.astype(np.int64, copy=False)
            key -= lo2.astype(np.int64)
            key <<= bits_pos
            key |= np.arange(n)
            key.sort()
            order = key & ((1 << bits_pos) - 1)
            key >>= bits2 + bits_pos
            key += lo1.astype(np.int64)
            return key.astype(first.dtype, copy=False), order
    order = np.lexsort((second, first))
    return first[order], order


def sort_key_value(
    keys: np.ndarray,
    values: np.ndarray,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort of ``values`` by integer ``keys`` (radix-sort pricing)."""
    ctx = ensure_context(ctx)
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape[0] != values.shape[0] or keys.ndim != 1:
        raise ValueError("keys must be 1-D and align with values along axis 0")
    passes = _radix_passes_for(int(keys.max()) if keys.size else 0)
    _charge_radix_sort(ctx, keys.size, keys.dtype.itemsize + values.dtype.itemsize,
                       passes, "radix_sort_kv")
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]
