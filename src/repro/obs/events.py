"""Columnar lifecycle-event recorder for the serving stack.

A serving system's aggregates (:class:`~repro.service.stats.ServiceStats`)
answer "how did the run go"; they cannot answer "what did *that* query spend
its time on".  :class:`TraceRecorder` closes the gap: every layer of the
stack emits small, typed lifecycle events — arrival, enqueue, flush,
dispatch decision, kernel start/end, completion, cache and index activity —
that freeze into one set of parallel NumPy columns.  The recorder rides the
columnar hot path by *journaling*: :meth:`TraceRecorder.record` appends one
tuple, :meth:`TraceRecorder.record_block` appends defensive copies of the
caller's arrays (sampled at once) or owned ones, and the rest of the per-row
work — owned blocks' sampling masks, dtype conversion, broadcasting, column
assembly — is deferred to the first :meth:`TraceRecorder.table` call.  When no
recorder is attached the emission sites reduce to one ``is None`` check.

Events are rows of seven parallel columns:

``time_s``
    When the event happened, on the *simulated* clock shared by every
    scheduler, backend lane and replica — so traces from different replicas
    merge onto one time axis with no skew correction.
``kind``
    Small integer event type (the ``EV_*`` constants; :data:`EVENT_NAMES`
    maps codes to names).
``ticket``
    The query's ticket for per-query events, ``-1`` for batch- or
    system-level events.
``batch``
    Recorder-issued batch id (:meth:`TraceRecorder.next_batch_id`), ``-1``
    when the event belongs to no batch.
``replica``
    Emitting replica id (``0`` on a single service, ``-1`` for
    cluster-level events such as shedding).
``detail``
    One float payload whose meaning depends on the kind (latency, batch
    size, predicted cost, hit count, build time — see the constants below).
``aux``
    An interned string code (:meth:`TraceRecorder.intern`) naming the
    dataset, backend lane or flush trigger involved; ``-1`` when none.

Sampling: ``sample=N`` keeps per-query events only for tickets divisible by
``N``.  Because the predicate is a pure function of the ticket — not of
arrival order or recorder state — a sampled trace is a strict subset of the
full trace of the same run, and batch-level events are always kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ServiceError

__all__ = [
    "EV_ARRIVAL",
    "EV_ENQUEUE",
    "EV_CACHE_LANE_HIT",
    "EV_FLUSH",
    "EV_DISPATCH",
    "EV_KERNEL_START",
    "EV_KERNEL_END",
    "EV_COMPLETE",
    "EV_CACHE_HITS",
    "EV_CACHE_MISSES",
    "EV_CACHE_INSERT",
    "EV_CACHE_RESET",
    "EV_INDEX_LOAD",
    "EV_INDEX_EVICT",
    "EV_SHED",
    "EV_FAULT",
    "EV_RETRY",
    "EV_HEDGE",
    "EV_MEMBERSHIP",
    "EV_SCALE",
    "EVENT_NAMES",
    "TraceRecorder",
    "TraceTable",
]

#: A query arrived at the front door.  ``detail`` unused; ``aux`` = dataset.
EV_ARRIVAL = 0
#: A query entered a scheduler's pending queue.  ``aux`` = dataset.
EV_ENQUEUE = 1
#: A query was answered from the answer cache at admission (the front-door
#: memoization lane).  ``time_s`` is the completion instant, ``detail`` the
#: modeled latency.
EV_CACHE_LANE_HIT = 2
#: A scheduler flushed a batch.  ``detail`` = batch size, ``aux`` = trigger
#: ("size" / "wait" / "drain" / "hit").
EV_FLUSH = 3
#: The dispatcher chose a backend for a batch.  ``detail`` = predicted
#: modeled seconds for the priced (kernel) queries, ``aux`` = backend key.
EV_DISPATCH = 4
#: A batch started occupying its backend lane.  ``detail`` = charged
#: service seconds, ``aux`` = lane key.
EV_KERNEL_START = 5
#: A batch released its backend lane.  ``aux`` = lane key.
EV_KERNEL_END = 6
#: A query's answer was stored.  ``detail`` = modeled latency.
EV_COMPLETE = 7
#: An answer-cache probe found keys.  ``detail`` = hit count.
EV_CACHE_HITS = 8
#: An answer-cache probe missed keys.  ``detail`` = miss count.
EV_CACHE_MISSES = 9
#: Unique miss answers were inserted into the answer cache.
#: ``detail`` = inserted count.
EV_CACHE_INSERT = 10
#: The answer cache reset an epoch under load pressure.
#: ``detail`` = resets in this event (normally 1).
EV_CACHE_RESET = 11
#: The index registry built an artifact.  ``detail`` = modeled build
#: seconds, ``aux`` = dataset.
EV_INDEX_LOAD = 12
#: The index registry evicted an artifact.  ``detail`` = freed bytes,
#: ``aux`` = dataset.
EV_INDEX_EVICT = 13
#: Admission control shed queries.  ``detail`` = shed count,
#: ``replica`` = -1 (a cluster-level event).
EV_SHED = 14
#: A fault-schedule event was applied.  ``replica`` = target (-1 for "add"),
#: ``detail`` = factor (slowdown) or count (transient), ``aux`` = action.
EV_FAULT = 15
#: Queries were re-dispatched to a surviving copy after a replica failure.
#: ``replica`` = new target, ``detail`` = query count, ``aux`` = dataset.
EV_RETRY = 16
#: A straggling batch was hedged to a second copy.  ``replica`` = hedge
#: target, ``batch`` = the straggler's batch id, ``detail`` = the hedge's
#: modeled service seconds, ``aux`` = 1 if the hedge won else 0.
EV_HEDGE = 17
#: Cluster membership changed.  ``replica`` = the replica added/retired,
#: ``detail`` = live replica count afterwards, ``aux`` = action.
EV_MEMBERSHIP = 18
#: A reactive scale decision landed (:meth:`ClusterService.scale_to`).
#: ``detail`` = the target replica count, ``aux`` = direction
#: (``"out"`` / ``"in"``), ``replica`` = -1 (a cluster-level event); the
#: individual adds/retires it causes emit their own ``EV_MEMBERSHIP`` rows.
EV_SCALE = 19

#: Event-kind code -> stable short name (JSONL and report rendering).
EVENT_NAMES: Tuple[str, ...] = (
    "arrival",
    "enqueue",
    "cache_lane_hit",
    "flush",
    "dispatch",
    "kernel_start",
    "kernel_end",
    "complete",
    "cache_hits",
    "cache_misses",
    "cache_insert",
    "cache_reset",
    "index_load",
    "index_evict",
    "shed",
    "fault",
    "retry",
    "hedge",
    "membership",
    "scale",
)

#: Kinds that carry a real ticket (and are therefore subject to sampling).
PER_QUERY_KINDS: Tuple[int, ...] = (
    EV_ARRIVAL,
    EV_ENQUEUE,
    EV_CACHE_LANE_HIT,
    EV_COMPLETE,
)

#: Column names and dtypes of a materialized trace, in storage order.
_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("time_s", np.float64),
    ("kind", np.int16),
    ("ticket", np.int64),
    ("batch", np.int64),
    ("replica", np.int32),
    ("detail", np.float64),
    ("aux", np.int32),
)


@dataclass(frozen=True)
class TraceTable:
    """Immutable columnar snapshot of recorded events.

    Columns are trimmed copies, so a table stays valid after its recorder
    keeps appending.  ``labels`` resolves the ``aux`` codes: ``aux`` value
    ``i >= 0`` means ``labels[i]``.

    >>> rec = TraceRecorder()
    >>> rec.record(EV_ARRIVAL, 0.5, ticket=3, aux=rec.intern("t"))
    >>> table = rec.table()
    >>> (table.n_events, table.labels)
    (1, ('t',))
    >>> float(table.time_s[0]), int(table.ticket[0])
    (0.5, 3)
    """

    time_s: np.ndarray
    kind: np.ndarray
    ticket: np.ndarray
    batch: np.ndarray
    replica: np.ndarray
    detail: np.ndarray
    aux: np.ndarray

    labels: Tuple[str, ...]

    @property
    def n_events(self) -> int:
        """Number of recorded events (rows)."""
        return int(self.time_s.size)

    def __len__(self) -> int:
        return self.n_events

    def label_of(self, code: int) -> str:
        """The label behind an ``aux`` code (empty string for ``-1``)."""
        return self.labels[code] if 0 <= code < len(self.labels) else ""

    def select(self, mask: np.ndarray) -> "TraceTable":
        """A new table holding the rows where ``mask`` is True."""
        return TraceTable(
            time_s=self.time_s[mask],
            kind=self.kind[mask],
            ticket=self.ticket[mask],
            batch=self.batch[mask],
            replica=self.replica[mask],
            detail=self.detail[mask],
            aux=self.aux[mask],
            labels=self.labels,
        )

    def of_kind(self, *kinds: int) -> "TraceTable":
        """Rows whose event kind is one of ``kinds``.

        >>> rec = TraceRecorder()
        >>> rec.record(EV_FLUSH, 0.0, batch=0, detail=4.0)
        >>> rec.record(EV_COMPLETE, 1.0, ticket=0, batch=0)
        >>> rec.table().of_kind(EV_FLUSH).n_events
        1
        """
        mask = np.isin(self.kind, np.asarray(kinds, dtype=self.kind.dtype))
        return self.select(mask)

    def canonical(self) -> "TraceTable":
        """The table sorted by a full lexicographic row key (time first).

        Two traces that record the same event *multiset* — e.g. a single
        service and a 1-replica cluster, whose emission order differs only
        where simultaneous events interleave — canonicalize to bit-identical
        tables.
        """
        order = np.lexsort(
            (
                self.aux,
                self.detail,
                self.replica,
                self.batch,
                self.ticket,
                self.kind,
                self.time_s,
            )
        )
        return self.select(order)

    def equals(self, other: "TraceTable") -> bool:
        """Exact equality: same labels and bit-identical columns."""
        return (
            self.labels == other.labels
            and np.array_equal(self.time_s, other.time_s)
            and np.array_equal(self.kind, other.kind)
            and np.array_equal(self.ticket, other.ticket)
            and np.array_equal(self.batch, other.batch)
            and np.array_equal(self.replica, other.replica)
            and np.array_equal(self.detail, other.detail)
            and np.array_equal(self.aux, other.aux)
        )


class TraceRecorder:
    """Journaling sink for lifecycle events, frozen into columns on demand.

    Appends are O(1): a scalar event is one tuple append, a block event one
    defensive copy of the caller's arrays (under sampling, the kept rows)
    plus a tuple append.  Dtype conversion, column assembly and an owned
    block's sampling mask happen once, inside :meth:`table`; what the overhead
    benchmark (``benchmarks/bench_obs_overhead.py``) gates is what remains on
    the serving hot path.

    Parameters
    ----------
    sample:
        Keep per-query events only for tickets divisible by ``sample``
        (``1``, the default, keeps everything).  Batch- and system-level
        events (``ticket == -1``) are always kept, so batch spans stay
        complete under sampling.

    Usage
    -----
    >>> rec = TraceRecorder(sample=2)
    >>> rec.record_block(EV_ARRIVAL, np.array([0.0, 1e-6, 2e-6]),
    ...                  np.array([0, 1, 2]))
    >>> rec.table().ticket.tolist()     # ticket 1 sampled out
    [0, 2]
    """

    def __init__(self, *, sample: int = 1) -> None:
        sample = int(sample)
        if sample < 1:
            raise ServiceError(f"sample must be at least 1, got {sample}")
        self.sample = sample
        # Journal entries, in emission order.  A scalar event is the 7-tuple
        # (kind, time_s, ticket, batch, replica, detail, aux); a block event
        # is the same shape with owned ndarrays in the time/ticket/detail
        # slots (ticket is the discriminator: ndarray = block).
        self._entries: List[Tuple[object, ...]] = []
        self._frozen: Optional[TraceTable] = None
        self._labels: List[str] = []
        self._codes: Dict[str, int] = {}
        self._next_batch = 0

    # ------------------------------------------------------------------
    # Identity services
    # ------------------------------------------------------------------
    def intern(self, label: str) -> int:
        """The stable small-integer code for ``label`` (allocating one once).

        >>> rec = TraceRecorder()
        >>> rec.intern("gpu"), rec.intern("cpu1"), rec.intern("gpu")
        (0, 1, 0)
        """
        code = self._codes.get(label)
        if code is None:
            code = len(self._labels)
            self._codes[label] = code
            self._labels.append(label)
        return code

    @property
    def labels(self) -> Tuple[str, ...]:
        """Every interned label, in code order."""
        return tuple(self._labels)

    def next_batch_id(self) -> int:
        """Issue the next recorder-wide batch id (consecutive from 0).

        One recorder spans every replica of a cluster, so batch ids are
        unique across the whole deployment being traced.
        """
        batch_id = self._next_batch
        self._next_batch += 1
        return batch_id

    @property
    def n_events(self) -> int:
        """Number of events recorded so far (after sampling)."""
        return self.table().n_events

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        kind: int,
        time_s: float,
        *,
        ticket: int = -1,
        batch: int = -1,
        replica: int = 0,
        detail: float = 0.0,
        aux: int = -1,
    ) -> None:
        """Append one event row (sampled out when its ticket says so)."""
        if ticket >= 0 and self.sample > 1 and ticket % self.sample:
            return
        self._frozen = None
        self._entries.append((kind, time_s, ticket, batch, replica, detail, aux))

    def record_span(
        self,
        kind_start: int,
        kind_end: int,
        start_s: float,
        end_s: float,
        *,
        batch: int = -1,
        replica: int = 0,
        detail: float = 0.0,
        aux: int = -1,
    ) -> None:
        """Append a start/end event pair in one call.

        Equivalent to two :meth:`record` calls with ``ticket=-1`` — the
        start row carries ``detail``, the end row does not.  Exists because
        the serving layer emits one span per batch on its hot path, where
        halving the call count is measurable.
        """
        self._frozen = None
        self._entries.append(
            (kind_start, start_s, -1, batch, replica, detail, aux))
        self._entries.append((kind_end, end_s, -1, batch, replica, 0.0, aux))

    def record_block(
        self,
        kind: int,
        time_s: Union[float, np.ndarray],
        tickets: np.ndarray,
        *,
        batch: int = -1,
        replica: int = 0,
        detail: Union[float, np.ndarray] = 0.0,
        aux: int = -1,
        own: bool = False,
    ) -> None:
        """Append one per-query event row per ticket.

        ``time_s`` and ``detail`` may be scalars (broadcast) or arrays
        aligned with ``tickets``, in any order (a cluster worker's queue may
        hold a re-admitted older ticket behind newer ones).  Array arguments
        are copied by default, so callers may keep mutating their buffers;
        ``own=True`` transfers ownership instead (the caller promises never
        to mutate the arrays again), skipping the defensive copies.  A
        sampling recorder filters eagerly by each ticket's own value — the
        surviving rows are few and freshly allocated, so the journal never
        retains a full-size copy of a sampled-down block.
        """
        tickets = np.asarray(tickets, dtype=np.int64)
        if tickets.size == 0:
            return
        rows: Optional[np.ndarray] = None
        if self.sample > 1 and not own:
            rows = self._kept(tickets)
            if not rows.size:
                return
        # An owned block (the per-batch completion hook on the serving hot
        # path) is appended as it is, and sampled when it is materialized.
        self._frozen = None
        self._entries.append((
            kind, self._column(time_s, np.float64, own, rows),
            self._column(tickets, np.int64, own, rows), batch, replica,
            self._column(detail, np.float64, own, rows), aux,
        ))

    def _kept(self, tickets: np.ndarray) -> np.ndarray:
        """Positions of the tickets divisible by ``sample``.

        The predicate is ``ticket % sample == 0``, computed without NumPy's
        int64 remainder (a division per row): a mask test when ``sample`` is
        a power of two, else a floor division by the scalar, which NumPy
        turns into a multiplication.
        """
        s = self.sample
        if s & (s - 1) == 0:
            keep = (tickets & (s - 1)) == 0
        else:
            keep = tickets // s * s == tickets
        return keep.nonzero()[0]

    @staticmethod
    def _column(values: Union[float, np.ndarray], dtype: type, own: bool,
                rows: Optional[np.ndarray]) -> Union[float, np.ndarray]:
        """``values`` as the journal may keep them.

        A scalar becomes a float; an array is kept as it is when owned,
        sampled down to ``rows``, or else copied.
        """
        if not isinstance(values, np.ndarray):
            return float(values)
        if rows is not None:
            return np.asarray(values, dtype=dtype)[rows]
        return np.asarray(values, dtype=dtype) if own else np.array(values, dtype=dtype)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def _expand(
        self, entry: Tuple[object, ...]
    ) -> Optional[Tuple[np.ndarray, ...]]:
        """One journal block entry -> full-length column pieces (or None)."""
        kind, times, tickets, batch, replica, details, aux = entry
        assert isinstance(tickets, np.ndarray)
        if self.sample > 1:
            rows = self._kept(tickets)
            if not rows.size:
                return None
            tickets = tickets[rows]
            if isinstance(times, np.ndarray):
                times = times[rows]
            if isinstance(details, np.ndarray):
                details = details[rows]
        n = tickets.size
        return (
            np.broadcast_to(np.float64(times), (n,))
            if not isinstance(times, np.ndarray) else times,
            np.full(n, kind, dtype=np.int16),
            tickets,
            np.full(n, batch, dtype=np.int64),
            np.full(n, replica, dtype=np.int32),
            np.broadcast_to(np.float64(details), (n,))
            if not isinstance(details, np.ndarray) else details,
            np.full(n, aux, dtype=np.int32),
        )

    def table(self) -> TraceTable:
        """Freeze the recorded events into an immutable :class:`TraceTable`.

        The first call after new appends materializes the journal — applies
        sampling to block entries, coalesces runs of scalar events, and
        concatenates everything into columns in emission order.  The result
        is cached until the next append.
        """
        if self._frozen is not None:
            return self._frozen
        parts: List[Tuple[np.ndarray, ...]] = []
        scalars: List[Tuple[object, ...]] = []

        def flush_scalars() -> None:
            if not scalars:
                return
            rows = list(zip(*scalars))
            parts.append(tuple(
                np.array(rows[i], dtype=dtype)
                for i, (_, dtype) in enumerate(_COLUMNS)
            ))
            scalars.clear()

        for entry in self._entries:
            if isinstance(entry[2], np.ndarray):  # block entry
                flush_scalars()
                piece = self._expand(entry)
                if piece is not None:
                    parts.append(piece)
            else:
                # Reorder to storage order (time before kind).
                scalars.append((entry[1],) + (entry[0],) + entry[2:])
        flush_scalars()

        if parts:
            columns = tuple(
                np.concatenate([p[i] for p in parts])
                for i in range(len(_COLUMNS))
            )
        else:
            columns = tuple(
                np.empty(0, dtype=dtype) for _, dtype in _COLUMNS
            )
        self._frozen = TraceTable(*columns, labels=tuple(self._labels))
        return self._frozen

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"TraceRecorder(entries={len(self._entries)}, "
            f"sample={self.sample}, batches={self._next_batch}, "
            f"labels={len(self._labels)})"
        )


def kind_name(kind: int) -> str:
    """The stable short name of an event-kind code.

    >>> kind_name(EV_FLUSH)
    'flush'
    """
    if 0 <= kind < len(EVENT_NAMES):
        return EVENT_NAMES[kind]
    return f"kind_{kind}"


#: Re-exported for callers that only need the optional-recorder type.
OptionalRecorder = Optional[TraceRecorder]
