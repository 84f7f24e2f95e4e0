"""Canonicalization and intra-batch dedup for symmetric pair queries.

LCA is symmetric — ``lca(x, y) == lca(y, x)`` — so a batch of queries over
node pairs can be *canonicalized* (each pair sorted to ``x <= y``) and then
*deduplicated*: under skewed traffic the same hot pairs recur thousands of
times per batch, and running the query kernel once per **unique** pair with a
scatter back to the original positions does strictly less work for identical
answers.

Everything here is a handful of vectorized passes:

* :func:`pack_query_pairs` sorts each pair and packs it into one ``uint64``
  key (``min << 32 | max``) — a canonical, totally ordered, hashable
  identity for the pair.  Node ids must fit 32 bits; :data:`PACK_LIMIT` is
  the largest tree size the packing supports, and callers serve larger trees
  through the plain path.
* :func:`unpack_query_pairs` inverts the packing (always into the canonical
  ``x <= y`` orientation).
* :func:`unique_packed_keys` is the one dedup kernel: sort the packed keys,
  compare neighbours, and only when some pair really repeats build the
  inverse map (a batch of distinct keys — the common case on a cache-miss
  path — is done after the sort).
* :func:`dedup_query_pairs` composes packing with it and returns the unique
  canonical pairs plus the inverse map that scatters per-unique answers back
  onto the original batch positions.
* :func:`first_appearance_counts` apportions one dedup of several batches'
  keys back to the batches (which is first to ask a key, which only repeats).

The serving layer (:mod:`repro.service`) builds its skew-aware fast path on
these kernels: the packed key doubles as the lookup key of the vectorized
answer cache, and the dispatcher prices the *unique* count instead of the raw
batch size.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..boundary import query_columns
from ..errors import InvalidQueryError

__all__ = [
    "PACK_LIMIT",
    "pack_query_pairs",
    "unpack_query_pairs",
    "unique_packed_keys",
    "first_appearance_counts",
    "dedup_query_pairs",
]

#: Largest tree size (node-id bound) the uint64 pair packing supports: ids
#: must fit in 32 bits each.
PACK_LIMIT = 1 << 32

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def pack_query_pairs(xs: np.ndarray, ys: np.ndarray,
                     hi: Optional[np.ndarray] = None) -> np.ndarray:
    """Canonical ``uint64`` key per pair: ``min(x, y) << 32 | max(x, y)``.

    The caller guarantees ``0 <= xs, ys < PACK_LIMIT`` (the serving layer
    validates node ids against the tree size long before this point) and
    may pass the ``max(x, y)`` column it computed doing so as ``hi``.

    >>> pack_query_pairs(np.array([3, 1]), np.array([1, 3])).tolist()
    [4294967299, 4294967299]
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    # minimum/maximum allocate fresh non-negative int64 arrays, so the
    # uint64 reinterpretation is a zero-copy view, not a cast pass, and the
    # key is built in place in the first of them.
    keys = np.minimum(xs, ys).view(np.uint64)
    keys <<= _SHIFT32
    keys |= np.maximum(xs, ys).view(np.uint64) if hi is None else hi
    return keys


def unpack_query_pairs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_query_pairs` into canonical ``(x, y)`` with ``x <= y``.

    >>> xs, ys = unpack_query_pairs(np.array([4294967299], dtype=np.uint64))
    >>> (xs.tolist(), ys.tolist())
    ([1], [3])
    """
    keys = np.asarray(keys, dtype=np.uint64)
    xs = (keys >> _SHIFT32).astype(np.int64)
    ys = (keys & _LOW32).astype(np.int64)
    return xs, ys


def unique_packed_keys(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sorted unique keys of a 1-D batch: ``(unique_keys, order, inverse)``.

    ``unique_keys`` equals ``np.unique(keys)``.  ``order`` sorts the batch
    stably (``keys[order]`` is non-decreasing, copies of a key in batch
    order).  When no key repeats, ``inverse`` is
    ``None`` and ``unique_keys`` is ``keys[order]`` itself — per-key results
    ``r`` of the batch line up with the unique keys as ``r[order]``.  When a
    key repeats, ``inverse`` is ``np.unique``'s: ``unique_keys[inverse]``
    equals ``keys``.

    >>> u, order, inv = unique_packed_keys(np.array([9, 3, 5], dtype=np.uint64))
    >>> (u.tolist(), order.tolist(), inv)
    ([3, 5, 9], [1, 2, 0], None)
    >>> u, _, inv = unique_packed_keys(np.array([9, 3, 9], dtype=np.uint64))
    >>> (u.tolist(), inv.tolist())
    ([3, 9], [1, 0, 1])
    """
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    fresh = ordered[1:] != ordered[:-1]
    if np.count_nonzero(fresh) == fresh.size:
        return ordered, order, None
    first = np.concatenate(([True], fresh))  # first copy of each distinct key
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], order, inverse


def first_appearance_counts(
    order: np.ndarray, inverse: Optional[np.ndarray], batch: np.ndarray,
    n_batches: int, *, carried: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apportion one dedup of several batches' keys: ``(unique, misses)`` per batch.

    ``order`` / ``inverse`` are :func:`unique_packed_keys` of the batches' keys
    laid end to end, ``batch[i]`` (non-decreasing) the batch of key ``i``.
    ``carried`` says answers are remembered from batch to batch, as by a
    cache: a key's first copy is a unique key and a miss of its batch, more
    copies in *that* batch are misses only, copies in later batches are
    neither — they hit.  Otherwise every key is a miss and ``unique[k]`` is
    batch ``k``'s distinct keys.  The stable sort makes "first" the earliest.

    >>> keys = np.array([7, 5, 7, 5, 5, 9], dtype=np.uint64)   # |7 5 7|5 5 9|
    >>> _, order, inverse = unique_packed_keys(keys)
    >>> [c.tolist() for c in first_appearance_counts(
    ...     order, inverse, np.array([0, 0, 0, 1, 1, 1]), 2, carried=True)]
    [[2, 1], [3, 1]]
    """
    if inverse is None:
        unique = np.bincount(batch, minlength=n_batches)
        return unique, unique
    batch, group = batch[order], inverse[order]
    first = np.concatenate(([True], group[1:] != group[:-1]))
    if carried:
        missed = batch[batch == batch[first][group]]
    else:
        missed = batch
        first[1:] |= batch[1:] != batch[:-1]
    return (np.bincount(batch[first], minlength=n_batches),
            np.bincount(missed, minlength=n_batches))


def dedup_query_pairs(
    xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique canonical pairs of a batch, with the scatter-back map.

    Returns ``(ux, uy, inverse)`` such that ``ux[i] <= uy[i]``, the unique
    pairs are sorted by packed key, and for any symmetric per-pair function
    ``f`` (like LCA), ``f(ux, uy)[inverse]`` equals ``f(xs, ys)``
    elementwise.

    Unlike :func:`pack_query_pairs` (whose callers have already validated
    node ids against the tree size) this standalone entry point checks the
    packing precondition itself, after :func:`repro.boundary.query_columns`.

    >>> ux, uy, inv = dedup_query_pairs(np.array([5, 2, 5]),
    ...                                 np.array([2, 5, 7]))
    >>> (ux.tolist(), uy.tolist(), inv.tolist())
    ([2, 5], [5, 7], [0, 0, 1])
    """
    xs, ys = query_columns(xs, ys)
    if xs.size and not (
        0 <= min(int(xs.min()), int(ys.min()))
        and max(int(xs.max()), int(ys.max())) < PACK_LIMIT
    ):
        raise InvalidQueryError(
            f"node ids must be in [0, {PACK_LIMIT}) for uint64 pair packing"
        )
    unique_keys, order, inverse = unique_packed_keys(pack_query_pairs(xs, ys))
    if inverse is None:
        # No repeated pair: the scatter-back map is the sort's inverse.
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.arange(order.size, dtype=np.int64)
    ux, uy = unpack_query_pairs(unique_keys)
    return ux, uy, inverse
