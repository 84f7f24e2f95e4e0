"""Vectorized answer cache: repeated queries cost a table probe, not a kernel.

Under skewed traffic the same ``(x, y)`` pairs are asked thousands of times
per second; recomputing a constant-time LCA for each repeat still pays the
whole kernel path — a dozen scattered node-table gathers per query plus
bounds checks and cost accounting.  This module adds the standard
serving-stack answer: an exact, bounded, O(1)-per-probe answer cache, built
so a whole *span* of batches (``LCAQueryService._serve_run``: ~1,000 keys) is
probed, and later populated, with a handful of NumPy passes — one ``lookup``
and one ``insert`` a span, not a Python loop and not a call a batch.

:class:`AnswerCache` is an open-addressing hash table over one preallocated
``uint64`` array holding two words per slot:

* ``table[2 * s]`` — the packed canonical pair key
  (:func:`repro.lca.dedup.pack_query_pairs`);
* ``table[2 * s + 1]`` — ``(epoch << 52) | (space << 32) | answer``: the
  slot's epoch stamp, its dataset-space id and the cached answer in one
  word.

The layout is the point: a probe touches exactly one 16-byte-aligned slot —
one cache line — and a *hit* needs no further memory access, because the
answer rides in the word that was gathered for the match check.  Compare a
dozen scattered reads for the query kernel proper.

* **Batched probe rounds.**  ``lookup``/``insert`` advance all unresolved
  lanes of a call one linear-probe step per round with fancy indexing; the
  round count is bounded by the longest probe chain built this epoch, so a
  lookup over a warm cache is typically a single vectorized pass.  Both are
  launch-lean — a one-batch span (~40 keys) costs its number of NumPy
  launches, not bytes: round 1 is a dozen launches on the whole call, later
  rounds run on the compacted lanes still walking, and an insert walks every
  lane to its chain's first free slot before one scatter per word and one
  read-back (``docs/architecture.md``, "Life of a cached span on the host").
* **Exactness.**  A hit requires the stored 64-bit pair key *and* the
  dataset space id *and* the current epoch to match exactly — hash
  collisions only cost extra probe rounds, never a wrong answer.  The
  service layer's property tests assert answers are bit-identical with the
  cache on and off.
* **Seeded salt.**  Slot indices come from a salted multiplicative hash
  (the salts are splitmix64-derived from a construction seed), so key
  patterns cannot be crafted against a fixed hash — and tests *can* craft
  collisions by fixing the seed.
* **Bounded memory, epoch-based reset.**  Capacity is fixed up front from a
  byte budget.  When occupancy would cross the load-factor bound the table
  resets by bumping its epoch — an O(1) logical clear (slots whose stamp
  lags the epoch read as empty).  The 12-bit epoch field wraps every 4095
  resets, at which point the array is zeroed once.

The cache is a host-side structure in the simulated-serving world: the
service layer charges each consulted batch a small modeled probe cost
(:data:`ANSWER_CACHE_PROBE_COST` on the multi-core host CPU) and books
full-hit batches on a dedicated ``"cache"`` backend lane.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..device import XEON_X5650_MULTI, modeled_kernel_time
from ..errors import ServiceError
from ..lca import QueryKernelCost

__all__ = [
    "AnswerCache",
    "ANSWER_CACHE_PROBE_COST",
    "BYTES_PER_SLOT",
    "MIN_CACHE_BYTES",
    "MAX_SPACES",
    "answer_cache_probe_time",
]

#: Per-slot footprint: uint64 pair key + packed (epoch | space | answer) word.
BYTES_PER_SLOT = 16

#: Smallest supported byte budget (64 slots).
MIN_CACHE_BYTES = 64 * BYTES_PER_SLOT

#: The packed word gives the dataset-space id 20 bits.
MAX_SPACES = 1 << 20

#: Modeled host-side cost of canonicalizing, packing and probing one query:
#: a few word ops plus one scattered 16-byte slot read.  Charged per batch
#: query on the multi-core host CPU whenever the skew-aware path runs.
ANSWER_CACHE_PROBE_COST = QueryKernelCost(ops=12.0, bytes_read=24.0, bytes_written=8.0)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

_VALUE_MASK = np.uint64(0xFFFFFFFF)
_UINT64 = np.dtype(np.uint64)
#: Epoch stamps live in the word's top 12 bits; 0 marks a never-used slot.
_MAX_EPOCH = (1 << 12) - 1

_probe_time_memo: Dict[int, float] = {}


def answer_cache_probe_time(size: int) -> float:
    """Modeled time to probe a batch of ``size`` queries (memoized by size)."""
    cached = _probe_time_memo.get(size)
    if cached is None:
        cost = ANSWER_CACHE_PROBE_COST
        cached = modeled_kernel_time(
            XEON_X5650_MULTI,
            threads=size,
            ops=cost.ops * size,
            bytes_read=cost.bytes_read * size,
            bytes_written=cost.bytes_written * size,
            launches=1,
            random_access=True,
        )
        _probe_time_memo[size] = cached
    return cached


def _check_keys(keys: np.ndarray) -> None:
    """Refuse anything but a 1-D ``uint64`` array (no coercion pass)."""
    if not isinstance(keys, np.ndarray) or keys.dtype != _UINT64 or keys.ndim != 1:
        raise ServiceError(
            "answer-cache keys must be a 1-D uint64 array "
            "(repro.lca.dedup.pack_query_pairs), got "
            + (f"{keys.dtype} array of shape {keys.shape}"
               if isinstance(keys, np.ndarray) else type(keys).__name__)
        )


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (bijective on uint64)."""
    x = x + _GOLDEN
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX_1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX_2
    return x ^ (x >> np.uint64(31))


class AnswerCache:
    """Bounded, exact, vectorized open-addressing answer cache.

    Parameters
    ----------
    capacity_bytes:
        Byte budget; the slot count is the largest power of two whose
        two-word slots fit (at least :data:`MIN_CACHE_BYTES`).
    seed:
        Salt seed for the slot hash.  Two caches with equal seeds behave
        identically on equal operation sequences (the cluster layer relies
        on this for its 1-replica ≡ single-service equivalence).
    max_load:
        Occupancy fraction that triggers an epoch reset.

    Usage
    -----
    >>> import numpy as np
    >>> cache = AnswerCache(1 << 14)
    >>> keys = np.array([7, 9], dtype=np.uint64)
    >>> cache.insert(0, keys, np.array([41, 42]))
    >>> values, found, hits = cache.lookup(0, keys)
    >>> (values.tolist(), found.tolist(), hits)
    ([41, 42], [True, True], 2)
    >>> cache.lookup(1, keys)[1].tolist()   # other dataset space: miss
    [False, False]
    """

    def __init__(
        self, capacity_bytes: int, *, seed: int = 0, max_load: float = 0.7
    ) -> None:
        if capacity_bytes < MIN_CACHE_BYTES:
            raise ServiceError(
                f"answer cache needs at least {MIN_CACHE_BYTES} bytes "
                f"(64 slots), got {capacity_bytes}"
            )
        if not 0.0 < max_load < 1.0:
            raise ServiceError("max_load must be in (0, 1)")
        slots = 1 << (int(capacity_bytes // BYTES_PER_SLOT).bit_length() - 1)
        self._slots = slots
        self._mask = np.int64(slots - 1)
        self._slot_shift = np.uint64(64 - (slots.bit_length() - 1))
        self._table = np.zeros(2 * slots, dtype=np.uint64)
        # Strided views of the same buffer, indexed by slot: a slot's two
        # words are 16-byte aligned neighbours (one cache line).
        self._slot_keys = self._table[0::2]
        self._slot_words = self._table[1::2]
        self._epoch = 1
        # Smallest slot word of the current epoch.  Stamps in the table never
        # exceed the current epoch (the wrap zeroes it), so ``word >=
        # _epoch_floor`` is the one-compare test for "occupied this epoch".
        self._epoch_floor = np.uint64(1 << 52)
        # Per-space (epoch | space) stamps of the current epoch.
        self._stamps: Dict[int, np.uint64] = {}
        seed_arr = np.asarray([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self._salt = _splitmix64(seed_arr)[0]
        # Per-dataset-space salts, derived lazily (array math only: NumPy
        # scalar uint64 overflow warns, array overflow wraps silently).
        self._space_salts: Dict[int, np.uint64] = {}
        self._used = 0
        self._max_used = max(1, int(slots * max_load))
        self._max_probe = 0
        self._hits = 0
        self._misses = 0
        self._resets = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def slots(self) -> int:
        """Number of table slots (a power of two)."""
        return self._slots

    @property
    def nbytes(self) -> int:
        """Actual footprint of the preallocated slot array."""
        return int(self._table.nbytes)

    @property
    def used(self) -> int:
        """Live entries in the current epoch."""
        return self._used

    @property
    def headroom(self) -> int:
        """Keys :meth:`insert` can still take this epoch without a reset."""
        return self._max_used - self._used

    @property
    def load(self) -> float:
        """Occupancy fraction of the current epoch."""
        return self._used / self._slots

    @property
    def hits(self) -> int:
        """Lookup keys answered from the table so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookup keys not found so far."""
        return self._misses

    @property
    def resets(self) -> int:
        """Epoch resets triggered by the load-factor bound."""
        return self._resets

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _space_salt(self, space: int) -> np.uint64:
        salt = self._space_salts.get(space)
        if salt is None:
            if not 0 <= space < MAX_SPACES:
                raise ServiceError(
                    f"dataset space id must be in [0, {MAX_SPACES}), got {space}"
                )
            mixed = np.asarray([space], dtype=np.uint64)
            salt = _splitmix64(mixed ^ self._salt)[0]
            self._space_salts[space] = salt
        return salt

    def _home_slots(self, space: int, keys: np.ndarray) -> np.ndarray:
        # Salted multiplicative (Fibonacci) hashing: one xor, one wrapping
        # multiply, one shift.  The multiplier diffuses every key bit into
        # the *top* bits, which is all the slot index uses; the zero-copy
        # view reinterprets the (always < 2^63) result as int64 indices.
        slot = keys ^ self._space_salt(space)
        slot *= _GOLDEN
        slot >>= self._slot_shift
        return slot.view(np.int64)

    def _stamp(self, space: int) -> np.uint64:
        # A slot word's top 32 bits for this space in the current epoch,
        # ``(epoch << 52) | (space << 32)``.  Memoized per space: the memo
        # is dropped by ``reset()``, the only place the epoch moves.
        stamp = self._stamps.get(space)
        if stamp is None:
            stamp = np.uint64((self._epoch << 52) | (space << 32))
            self._stamps[space] = stamp
        return stamp

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(
        self, space: int, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Batched probe: ``(values, found, hits)`` for every key, in order.

        ``keys`` is a 1-D ``uint64`` array (anything else raises
        :class:`~repro.errors.ServiceError`) and may contain duplicates (a
        raw batch is probed as-is).  A probe round is one slot gather per
        unresolved lane; the round count is bounded by the longest chain
        inserted this epoch.  ``values`` entries where ``found`` is False
        are unspecified.
        """
        _check_keys(keys)
        m = keys.size
        if m == 0 or self._used == 0:
            self._misses += m
            return np.zeros(m, dtype=np.int64), np.zeros(m, dtype=bool), 0
        slot = self._home_slots(space, keys)
        slot_keys = self._slot_keys
        slot_words = self._slot_words
        epoch_floor = self._epoch_floor
        # Round 1 runs on the whole batch with no lane indexing — on a warm
        # cache (short chains) it resolves almost every lane.  ``x`` is the
        # slot word with this (epoch, space) stamp xor-ed out: a slot of this
        # space and epoch leaves just its answer (< 2^32), so one xor serves
        # the match test and the answer.
        stamp = self._stamp(space)
        word = slot_words[slot]
        x = word ^ stamp
        found = slot_keys[slot] == keys
        found &= x <= _VALUE_MASK
        values = x.view(np.int64)
        hits = int(np.count_nonzero(found))
        # A full hit in round 1 is the steady state under hot traffic; and
        # when no entry sits off its home slot there is nothing more to probe.
        if hits < m and self._max_probe > 1:
            # Lanes that reached an empty slot are definitive misses; lanes
            # on a foreign occupied slot keep probing, one step per round.
            live = word >= epoch_floor
            live ^= found
            active = live.nonzero()[0]
            mask = self._mask
            slot = slot[active]
            keys = keys[active]
            for _ in range(self._max_probe - 1):
                if active.size == 0:
                    break
                slot += 1
                slot &= mask
                word = slot_words[slot]
                live = word >= epoch_floor
                # Key first: on the miss path no key matches, and the stamp
                # test then never runs.
                same = (slot_keys[slot] == keys).nonzero()[0]
                if same.size:
                    x = word[same] ^ stamp
                    hit = (x <= _VALUE_MASK).nonzero()[0]
                    same = same[hit]
                    lanes = active[same]
                    values[lanes] = x[hit].view(np.int64)
                    found[lanes] = True
                    hits += same.size
                    live[same] = False
                going = live.nonzero()[0]
                if going.size < active.size:
                    # Re-compact only when a lane actually dropped out.
                    active = active[going]
                    slot = slot[going]
                    keys = keys[going]
        self._hits += hits
        self._misses += m - hits
        return values, found, hits

    def insert(self, space: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert distinct, absent keys (one dataset space per call).

        ``keys`` is a 1-D ``uint64`` array (anything else raises
        :class:`~repro.errors.ServiceError`).  The caller passes the *distinct
        missing* keys of a span of batches — deduplicated across the span
        and known not to be present — which is exactly what the serving
        layer has in hand after the span's one lookup and one sort.
        Repeated keys in one call are the caller's to remove: every copy is
        stored and counted, so three copies of one key raise ``used`` by 3.

        Every lane first walks to the first free slot of its probe chain;
        then the batch is written with one scatter per word and read back.
        Lanes that lost a same-slot race to another lane walk on from there,
        so within-batch insertions land on distinct slots.  If the batch
        would push occupancy past the load bound the table resets first; a
        batch larger than the whole load bound is truncated (the cache is
        best-effort).
        """
        _check_keys(keys)
        m = keys.size
        if m == 0:
            return
        if self._used + m > self._max_used:
            self.reset()
            if m > self._max_used:
                keys = keys[: self._max_used]
                values = values[: self._max_used]
                m = keys.size
        words = np.asarray(values, dtype=np.int64).view(np.uint64) | self._stamp(space)
        slot = self._home_slots(space, keys)
        slot_keys = self._slot_keys
        slot_words = self._slot_words
        mask = self._mask
        epoch_floor = self._epoch_floor
        # ``rounds`` bounds (displacement + 1) of every lane placed so far;
        # lookups trust ``_max_probe`` to be such a bound.
        rounds = 1
        while True:
            # Walk the lanes still on an occupied slot, compacting as lanes
            # arrive; ``slot`` always holds every pending lane's position.
            cur, lanes = slot, None
            while True:
                occupied = (slot_words[cur] >= epoch_floor).nonzero()[0]
                if occupied.size == 0:
                    break
                cur = cur[occupied]
                cur += 1
                cur &= mask
                lanes = occupied if lanes is None else lanes[occupied]
                slot[lanes] = cur
                rounds += 1
            # Scatter writes: for duplicate slots the last write wins on both
            # words alike, so the winning lane is consistent; the read-back
            # finds the lanes that lost such a race.
            slot_keys[slot] = keys
            slot_words[slot] = words
            lost = (slot_keys[slot] != keys).nonzero()[0]
            if lost.size == 0:
                break
            keys = keys[lost]
            words = words[lost]
            slot = slot[lost]
        self._used += m
        if rounds > self._max_probe:
            self._max_probe = rounds

    def credit_hits(self, copies: int) -> None:
        """Recount ``copies`` looked-up keys from misses to hits.

        A span of batches is looked up once, before any of it is inserted,
        so a missing key's copies in batches after its first read as misses
        here; batch by batch — what these counters describe — the first
        batch's insert would have answered them.  The serving layer counts
        them (:func:`repro.lca.dedup.first_appearance_counts`), and keeps a
        multi-batch span within :attr:`headroom` so no reset falls inside it.
        """
        self._hits += copies
        self._misses -= copies

    def reset(self) -> None:
        """Logically clear the table by advancing the epoch (O(1)).

        Every 4095 resets the 12-bit epoch field wraps and the slot array
        is zeroed for real.

        >>> import numpy as np
        >>> cache = AnswerCache(1 << 12)
        >>> cache.insert(0, np.array([3], dtype=np.uint64), np.array([9]))
        >>> cache.reset()
        >>> cache.lookup(0, np.array([3], dtype=np.uint64))[1].tolist()
        [False]
        """
        if self._epoch >= _MAX_EPOCH:
            self._table.fill(0)
            self._epoch = 0
        self._epoch += 1
        self._epoch_floor = np.uint64(self._epoch << 52)
        self._stamps.clear()
        self._used = 0
        self._max_probe = 0
        self._resets += 1

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"AnswerCache(slots={self._slots}, used={self._used}, "
            f"hits={self._hits}, misses={self._misses}, resets={self._resets})"
        )
