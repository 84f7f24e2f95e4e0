"""Micro-batch scheduler: coalesce single queries into device-sized batches.

The paper's batch-size experiment (Fig. 6) shows that the GPU only pays off
once queries are handed over in batches of ~100 or more, and saturates around
10⁴.  An online service, however, receives queries one at a time.  The
standard resolution — the same one used by neural-inference servers — is
*micro-batching*: hold arriving queries in a queue and flush the queue as one
batch when either

* the queue reaches ``max_batch_size`` (**size trigger** — the device-sized
  batch is ready, no reason to wait), or
* the oldest queued query has waited ``max_wait_s`` (**wait trigger** — the
  latency budget is up, flush whatever has accumulated), or
* the caller forces it (**drain trigger** — e.g. shutdown or a benchmark
  boundary).

All timing uses the :class:`~repro.service.clock.SimulatedClock`, so flush
decisions are deterministic functions of the arrival timestamps: a
wait-triggered flush fires at exactly ``oldest_arrival + max_wait_s``, never
"roughly when the event loop got around to it".  That instant is scheduler
state, :attr:`MicroBatchScheduler.next_deadline`, refreshed only where the
pending window's head moves (a cut, the first row into an empty queue, the end
of a block, a retune, an evict) and ``inf`` when idle, which no instant
reaches: whether an arrival expires anything is one float comparison.

Storage is *columnar*: the pending queue is four parallel preallocated NumPy
arrays (tickets / xs / ys / arrivals) with head and tail cursors, not a list
of per-query objects.  A flush is recorded as a *cut* of those arrays (row
offsets, flush time, trigger); :class:`Cuts` builds zero-copy
:class:`FlushedBatch` slices only for a caller that asks.
:meth:`MicroBatchScheduler.submit_block` admits a whole column block with
array arithmetic, :meth:`MicroBatchScheduler.submit` writes one row.  A full
buffer is replaced by a fresh one the pending window is copied into; the old
one is left untouched so every previously flushed slice stays valid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from ..boundary import Check, count, duration, settle
from ..obs.events import EV_ENQUEUE, EV_FLUSH, TraceRecorder
from .clock import SimulatedClock

__all__ = ["BatchPolicy", "FlushedBatch", "Cuts", "MicroBatchScheduler"]

#: Buffer sizing bounds: large enough to amortize refills, small enough that
#: a scheduler over a huge ``max_batch_size`` does not preallocate gigabytes.
_MIN_BUFFER = 64
_MAX_INITIAL_BUFFER = 1 << 16

#: One recorded flush, ``(columns, start, stop, flush_s, trigger, batch_id)``:
#: rows ``start:stop`` of the ``(tickets, xs, ys, arrival_s)`` buffers, as trace
#: batch ``batch_id`` (-1 untraced).  A plain tuple: one is made per batch.
Cut = Tuple[Tuple[np.ndarray, ...], int, int, float, str, int]


@dataclass(frozen=True)
class BatchPolicy:
    """The two knobs of the micro-batching trade-off.

    ``max_batch_size=1`` degenerates to pass-through serving (every query is
    its own batch); ``max_wait_s=0.0`` flushes a pending queue as soon as time
    moves at all, which bounds added queueing latency at zero but only forms
    batches out of queries arriving at the same instant.

    >>> BatchPolicy(max_batch_size=256, max_wait_s=1e-4).max_batch_size
    256
    >>> BatchPolicy(max_batch_size=0)
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: max_batch_size must be at least 1
    """

    max_batch_size: int = 1024
    max_wait_s: float = 1e-3

    #: The knobs' checks, shared with the service and cluster configs.
    CHECKS: ClassVar[Dict[str, Check]] = dict(max_batch_size=count, max_wait_s=duration)

    def __post_init__(self) -> None:
        settle(self, self.CHECKS)


@dataclass(frozen=True)
class FlushedBatch:
    """A batch handed to the execution backend, with full timing provenance.

    The arrays are zero-copy views into the scheduler's column buffers; the
    scheduler never overwrites a flushed region, so they remain valid for as
    long as the caller keeps them.  ``start`` is the row the views begin at
    in those buffers (their ``.base``): two batches with the same buffer and
    ``a.start + a.size == b.start`` are adjacent slices of it.
    """

    tickets: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    arrival_s: np.ndarray
    start: int
    flush_s: float
    trigger: str
    #: Trace batch id (from the attached observer); -1 when untraced.
    batch_id: int = -1

    @property
    def size(self) -> int:
        """Number of queries in the batch.

        >>> s = MicroBatchScheduler()
        >>> _ = s.submit(0, 1, 2)
        >>> [b.size for b in s.drain()]
        [1]
        """
        return int(self.xs.size)

    @classmethod
    def of(cls, cut: Cut) -> "FlushedBatch":
        """The zero-copy view of one recorded :data:`Cut`."""
        columns, start, stop = cut[:3]
        return cls(*(column[start:stop] for column in columns), start, *cut[3:])


class Cuts(Sequence[FlushedBatch]):
    """The batches one scheduler call flushed: a lazy view over its cuts.

    ``rows`` holds one :data:`Cut` per flush, in flush order — all the
    scheduler records; ``cuts[k]`` builds the ``k``-th :class:`FlushedBatch`.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: List[Cut]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> FlushedBatch:  # type: ignore[override]
        return FlushedBatch.of(self.rows[k])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


#: What a call that flushed nothing returns; its ``rows`` tuple cannot grow.
NO_CUTS = Cuts(())  # type: ignore[arg-type]


class MicroBatchScheduler:
    """Coalesces submitted queries into batches under a :class:`BatchPolicy`.

    The scheduler never executes anything itself — it returns the
    :class:`Cuts` it made and the caller (the service layer) runs them
    through a backend.  ``submit`` and ``advance_to`` may each produce several
    batches: advancing time far enough can expire several wait deadlines, and
    a submission can both expire old queries and complete a full batch.

    Internally the pending queue is a window ``[head, tail)`` over four
    parallel column buffers.  Two invariants keep the bookkeeping simple:

    * the pending count never exceeds ``max_batch_size`` between public
      calls (a submission that fills a batch flushes it immediately), and
    * flushed regions are never overwritten — exhausting a buffer allocates
      a fresh one rather than wrapping, so flushes are true zero-copy slices.
    """

    def __init__(self, policy: Optional[BatchPolicy] = None, *,
                 clock: Optional[SimulatedClock] = None) -> None:
        self.policy = policy or BatchPolicy()
        self.clock = clock or SimulatedClock()
        self._head = self._tail = 0
        self._deadline = math.inf
        self._observer: Optional[TraceRecorder] = None
        self._obs_replica = 0
        self._allocate(0)

    def set_observer(self, observer: Optional[TraceRecorder], *,
                     replica: int = 0) -> None:
        """Attach (or detach, with ``None``) a trace recorder.

        With an observer attached, every admission emits an ``enqueue``
        event and every flush a ``flush`` event carrying a fresh batch id (the
        cut's, for downstream layers to correlate their events).  Without
        one, the hot paths pay a single ``is None`` check.
        """
        self._observer = observer
        self._obs_replica = int(replica)

    def _allocate(self, needed: int) -> None:
        """Install fresh buffers for ``needed`` rows, migrating the pending window.

        The previous buffers are *not* reused: any flushed slices handed out
        earlier alias them, and NumPy keeps the backing memory alive for
        exactly as long as those views exist.
        """
        capacity = max(_MIN_BUFFER, 2 * needed,
                       min(2 * self.policy.max_batch_size, _MAX_INITIAL_BUFFER))
        # tickets, xs, ys, arrival_s
        columns = tuple(np.empty(capacity, dtype=dtype) for dtype in
                        (np.int64, np.int64, np.int64, np.float64))
        h, t = self._head, self._tail
        if t > h:
            for new, old in zip(columns, self._columns):
                new[:t - h] = old[h:t]
        self._columns = columns
        self._head, self._tail = 0, t - h

    def _ensure_room(self, count: int) -> None:
        if self._tail + count > self._columns[0].size:
            self._allocate(self._tail - self._head + count)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of queries currently queued.

        >>> s = MicroBatchScheduler()
        >>> _ = s.submit(0, 1, 2)
        >>> s.pending_count
        1
        """
        return self._tail - self._head

    @property
    def next_deadline(self) -> float:
        """Instant at which the oldest pending query must be flushed.

        >>> s = MicroBatchScheduler(BatchPolicy(max_batch_size=8,
        ...                                     max_wait_s=1e-3))
        >>> s.next_deadline             # nothing queued: no instant reaches it
        inf
        >>> _ = s.submit(0, 1, 2, at=0.0)
        >>> s.next_deadline             # oldest arrival + max_wait_s
        0.001
        """
        return self._deadline

    # ------------------------------------------------------------------
    # Submission and time
    # ------------------------------------------------------------------
    def submit(self, ticket: int, x: int, y: int, *,
               at: Optional[float] = None) -> Cuts:
        """Queue one query, returning any batches its arrival caused to flush.

        ``at`` is the arrival timestamp; omitted, the query arrives "now".
        Advancing to ``at`` first fires any wait deadlines that expire before
        the new query arrives, so batches never contain queries that should
        already have been served.

        >>> s = MicroBatchScheduler(BatchPolicy(max_batch_size=2,
        ...                                     max_wait_s=1e-3))
        >>> s.submit(0, 1, 2, at=0.0)             # queued, nothing flushes
        []
        >>> [b.trigger for b in s.submit(1, 3, 4, at=1e-4)]   # batch full
        ['size']
        """
        t = self.clock.now if at is None else self.clock.advance_to(at)
        # Only strictly-past deadlines flush here: a query arriving exactly at
        # the pending queue's deadline still joins that batch (and with
        # max_wait_s=0 this is what lets same-instant arrivals coalesce).
        cuts = self.advance_to(t, include_equal=False) if self._deadline < t else NO_CUTS
        self._ensure_room(1)
        i = self._tail
        tickets, xs, ys, arrival = self._columns
        tickets[i], xs[i], ys[i], arrival[i] = ticket, x, y, t
        self._tail = i + 1
        if i == self._head:  # the first row into an empty queue starts its wait
            self._refresh_deadline()
        if self._observer is not None:
            self._observer.record(EV_ENQUEUE, t, ticket=int(ticket),
                                  replica=self._obs_replica)
        if self._tail - self._head >= self.policy.max_batch_size:
            cuts = self._cut(cuts, t, "size")
        return cuts

    def submit_block(self, tickets: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     arrival_s: np.ndarray) -> Cuts:
        """Admit a column block of queries, returning every batch it flushed.

        Observationally equivalent to calling :meth:`submit` once per row, but
        the admission runs in bulk: the whole block is copied behind the
        pending window once (four slice assignments), then cut at wait
        deadlines and batch-size boundaries by moving the window's cursors
        over it: the loop iterates once per *flush* and copies nothing.

        ``arrival_s`` must be non-decreasing and start at or after the current
        simulated time (the same monotonicity :meth:`submit` enforces through
        the clock).  The caller is expected to have validated the queries.

        >>> s = MicroBatchScheduler(BatchPolicy(max_batch_size=2,
        ...                                     max_wait_s=1.0))
        >>> batches = s.submit_block(np.arange(3), np.array([1, 2, 3]),
        ...                          np.array([4, 5, 6]), np.zeros(3))
        >>> [(b.trigger, b.size) for b in batches]   # one size flush of 2
        [('size', 2)]
        >>> s.pending_count                          # the third query waits
        1
        """
        count = int(arrival_s.size)
        if count == 0:
            return NO_CUTS
        self.clock.advance_to(arrival_s.item(0))  # refuses a first arrival in the past
        max_batch, wait = self.policy.max_batch_size, self.policy.max_wait_s
        obs = self._observer
        if obs is not None:
            # One block event for the whole admission: every query enqueues
            # at its own arrival time, so chunking adds no information.
            obs.record_block(EV_ENQUEUE, arrival_s, tickets, replica=self._obs_replica)
        # Rows past the window ``head .. t0 + p`` are staged, not pending.  The
        # window admits every row arriving at or before its deadline (one at
        # it too: the per-query include_equal=False rule), up to a full batch;
        # a full window flushes at its last arrival, a short one at its
        # deadline (the next row is past it); the last one stays pending.
        self._ensure_room(count)
        columns, head, t0, rows, p = self._columns, self._head, self._tail, [], 0
        for column, values in zip(columns, (tickets, xs, ys, arrival_s)):
            column[t0:t0 + count] = values
        deadline = self._deadline  # a carried window's; a fresh one opens below
        while p < count:
            if t0 + p == head:
                deadline = arrival_s.item(p) + wait
            join = int(arrival_s.searchsorted(deadline, side="right"))
            p = min(join, head - t0 + max_batch)
            if t0 + p - head == max_batch:
                flush_s, trigger = arrival_s.item(p - 1), "size"
            elif p < count:
                flush_s, trigger = deadline, "wait"
            else:
                break
            rows.append((columns, head, t0 + p, flush_s, trigger, -1 if obs is None
                         else self._flushed(obs, flush_s, t0 + p - head, trigger)))
            head = t0 + p
        self._head, self._tail = head, t0 + count
        self._refresh_deadline()
        self.clock.advance_to(arrival_s.item(count - 1))
        return Cuts(rows) if rows else NO_CUTS

    def advance_to(self, t: float, *, include_equal: bool = True) -> Cuts:
        """Move simulated time to ``t``, flushing every expired wait deadline.

        With ``include_equal=False``, a deadline exactly at ``t`` is left
        pending — the service layer uses this on the submit path so a query
        arriving at ``t`` can still join that batch.

        >>> s = MicroBatchScheduler(BatchPolicy(max_batch_size=8,
        ...                                     max_wait_s=1e-3))
        >>> _ = s.submit(0, 1, 2, at=0.0)
        >>> [b.trigger for b in s.advance_to(5e-3)]   # deadline passed
        ['wait']
        """
        t, cuts = self.clock.advance_to(t), NO_CUTS
        # The flush happens at the deadline itself, not at t: with a
        # simulated clock there is no "checking late".
        while self._deadline < t or (include_equal and self._deadline == t):
            cuts = self._cut(cuts, self._deadline, "wait")
        return cuts

    def drain(self) -> Cuts:
        """Force out everything still pending (at the current time).

        >>> s = MicroBatchScheduler()
        >>> _ = s.submit(0, 1, 2)
        >>> [b.trigger for b in s.drain()]
        ['drain']
        >>> s.drain()                   # empty queue: nothing to force out
        []
        """
        cuts = NO_CUTS
        while self._tail > self._head:
            cuts = self._cut(cuts, self.clock.now, "drain")
        return cuts

    def retune(self, policy: BatchPolicy) -> Cuts:
        """Hot-swap the batch policy; return the batches the swap forces out.

        The swap happens at the current instant: flushed batches are
        untouched, and the pending window is re-judged as if the new policy
        had been in force all along.  A shrunk ``max_wait_s`` makes the oldest
        queries *late*: they flush with the ``wait`` trigger at their new
        (possibly passed) deadlines, oldest first, as :meth:`advance_to` with
        ``include_equal=False`` flushes them — a deadline exactly now stays
        pending, so a same-instant arrival can still join it.  A shrunk
        ``max_batch_size`` makes the window *oversized*: size-complete
        batches flush now until the remainder fits.

        >>> s = MicroBatchScheduler(BatchPolicy(max_batch_size=8,
        ...                                     max_wait_s=1.0))
        >>> for i in range(3):
        ...     _ = s.submit(i, 1, 2, at=i * 1e-4)
        >>> batches = s.retune(BatchPolicy(max_batch_size=2, max_wait_s=1.0))
        >>> [(b.trigger, b.size) for b in batches]
        [('size', 2)]
        >>> s.pending_count
        1
        """
        self.policy = policy
        self._refresh_deadline()
        cuts = self.advance_to(self.clock.now, include_equal=False)
        while self._tail - self._head >= policy.max_batch_size:
            cuts = self._cut(cuts, self.clock.now, "size")
        return cuts

    def evict(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove the pending window without serving it; return its columns.

        The failure-handling path (a replica killed with queries still
        queued) uses this to pull the unserved queries back out so the
        cluster can re-dispatch them to a surviving copy.  The returned
        arrays are *copies* — the scheduler's state after the call is as if
        those queries were never submitted (time does not move).

        >>> s = MicroBatchScheduler()
        >>> _ = s.submit(7, 1, 2, at=0.0)
        >>> tickets, xs, ys, arrival = s.evict()
        >>> tickets.tolist(), s.pending_count
        ([7], 0)
        """
        h, t = self._head, self._tail
        self._head = t
        self._refresh_deadline()
        return tuple(column[h:t].copy() for column in self._columns)  # type: ignore

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_deadline(self) -> None:
        """Store the window's deadline, ``inf`` when idle; nothing else derives one."""
        h = self._head
        self._deadline = (self._columns[3].item(h) + self.policy.max_wait_s
                          if h < self._tail else math.inf)

    def _cut(self, cuts: Cuts, flush_s: float, trigger: str) -> Cuts:
        """Flush the next batch: record its cut on ``cuts`` (fresh for NO_CUTS)."""
        h, obs, flush_s = self._head, self._observer, float(flush_s)
        stop = self._head = h + min(self._tail - h, self.policy.max_batch_size)
        self._refresh_deadline()
        cuts = Cuts([]) if cuts is NO_CUTS else cuts
        cuts.rows.append((self._columns, h, stop, flush_s, trigger, -1 if obs is None
                          else self._flushed(obs, flush_s, stop - h, trigger)))
        return cuts

    def _flushed(self, obs: TraceRecorder, at: float, size: int, trigger: str) -> int:
        """Record a flush of ``size`` rows with ``obs``; returns its batch id."""
        batch_id = obs.next_batch_id()
        obs.record(EV_FLUSH, at, batch=batch_id, replica=self._obs_replica,
                   detail=float(size), aux=obs.intern(trigger))
        return batch_id
