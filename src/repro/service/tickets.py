"""Per-ticket state: one growable table of columns under one ticket counter.

What the serving stack remembers per query lives in flat arrays indexed by
ticket, in one :class:`TicketTable` per node, or per cluster (its workers
all answer into it).  Every column has the table's one capacity; a zeroed
column reads zero wherever nothing was written.  Deferred kernel calls run,
coalesced, before an answer is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike, DTypeLike

from ..boundary import ticket_ids
from ..errors import ServiceError

__all__ = ["TicketTable", "grow_table"]

#: Smallest table capacity (grows by doubling from there).
_MIN_CAPACITY = 1024

#: Deferred lanes at which a table runs its pending launches unread.  Median
#: items/s of three interleaved 6 s runs (seed 7, 2-vCPU VM) at 4,096 / 16,384
#: / 65,536: ``serve-columnar`` 5.43M / 5.92M / 4.73M, ``serve-rowwise`` 322k /
#: 317k / 336k (runs spread 314-357k).  Measured, not tunable.
_LAUNCH_LANES = 1 << 14


def launch(artifact: Any, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The serving stack's one kernel call.  No ``ctx``: a booking charged it."""
    return artifact.query(xs, ys)


def grow_table(
    table: np.ndarray, used: int, needed: int, *, zeroed: bool = False
) -> np.ndarray:
    """``table`` (itself if large enough) grown by doubling to ``needed`` slots,
    its first ``used`` kept; with ``zeroed`` the rest read zero."""
    capacity = table.size
    if needed <= capacity:
        return table
    while capacity < needed:
        capacity *= 2
    grown = (np.zeros if zeroed else np.empty)(capacity, dtype=table.dtype)
    grown[:used] = table[:used]
    return grown


class TicketTable:
    """Columns indexed by consecutive tickets ``0 .. issued - 1``.

    ``TicketTable(capacity, answers=np.int64, ...)`` pre-sizes one
    uninitialized column per keyword; :meth:`zeros` adds zero-filled ones.
    Columns are plain attributes (``table.answers[lo:hi] = values``) that a
    reallocation rebinds: read them off the table after every :meth:`issue`.

    >>> table = TicketTable(0, answers=np.int64)
    >>> table.issue(3), table.issue(), table.issued
    (0, 3, 4)
    """

    def __init__(self, capacity: int = 0, **dtypes: DTypeLike) -> None:
        #: How many tickets have been issued so far.
        self.issued = 0
        self.capacity = max(_MIN_CAPACITY, int(capacity))
        # Column name -> whether it must read zero where nothing was written.
        self._zeroed: Dict[str, bool] = {}
        self._pending: Dict[int, List[Tuple[Any, Any, Any, Any]]] = {}  # see defer
        self.pending_lanes = 0
        for name, dtype in dtypes.items():
            self._zeroed[name] = False
            setattr(self, name, np.empty(self.capacity, dtype=dtype))

    if TYPE_CHECKING:  # columns are attributes a type checker cannot see
        def __getattr__(self, name: str) -> np.ndarray: ...

    def zeros(self, name: str, dtype: DTypeLike) -> np.ndarray:
        """Column ``name``: made zero-filled on first use, reads zero past growth."""
        if name not in self._zeroed:
            self._zeroed[name] = True
            setattr(self, name, np.zeros(self.capacity, dtype=dtype))
        return getattr(self, name)

    def issue(self, count: int = 1) -> int:
        """Issue ``count`` consecutive tickets; returns the first (a Python int)."""
        first = self.issued
        # Bumped first: growth holds the new count, copying the whole old table.
        self.issued = first + count
        if self.issued > self.capacity:
            old = self.capacity
            for name, zeroed in self._zeroed.items():
                grown = grow_table(getattr(self, name), old, self.issued, zeroed=zeroed)
                setattr(self, name, grown)
                self.capacity = grown.size
        return first

    def index(self, tickets: ArrayLike) -> np.ndarray:
        """``tickets`` as a 1-D ``int64`` array (:data:`~repro.boundary.ticket_ids`),
        or a :class:`ServiceError` for the first one never issued."""
        idx = ticket_ids(tickets)
        if idx.size and not 0 <= idx.min() <= idx.max() < self.issued:
            unknown = (idx < 0) | (idx >= self.issued)  # only to name the first
            raise ServiceError(f"unknown ticket {idx[int(unknown.argmax())]}")
        return idx

    @staticmethod
    def window(tickets: np.ndarray, ascends: bool = False) -> Union[slice, np.ndarray]:
        """A slice if ``tickets`` run ascending (known so, or checked) and
        consecutive, else them: a routed sub-block, or a re-admission."""
        n = tickets.size
        if n and tickets.item(-1) - tickets.item(0) == n - 1:
            if ascends or (tickets[1:] > tickets[:-1]).all():
                return slice(tickets.item(0), tickets.item(-1) + 1)
        return tickets

    def defer(self, artifact: Any, window: Union[slice, np.ndarray],
              xs: np.ndarray, ys: np.ndarray) -> None:
        """Answer ``window`` with ``artifact.query(xs, ys)`` at the next read or
        lane bound, in one launch per set of host tables (``.structure``)."""
        self._pending.setdefault(id(artifact.structure), []).append(
            (artifact, window, xs, ys))
        self.pending_lanes += xs.size
        if self.pending_lanes >= _LAUNCH_LANES:
            self.resolve()

    def resolve(self) -> None:
        """Run the deferred launches into their windows; one that raises
        leaves its pieces pending."""
        while self._pending:
            key, pieces = next(iter(self._pending.items()))
            artifacts, windows, xs, ys = zip(*pieces)
            answers = launch(artifacts[0], np.concatenate(xs), np.concatenate(ys))
            at = 0
            for window, piece in zip(windows, xs):
                self.answers[window] = answers[at:at + piece.size]
                at += piece.size
            del self._pending[key]
            self.pending_lanes -= at

    def read(self, column: str, tickets: ArrayLike) -> np.ndarray:
        """A fresh array of ``column`` at ``tickets``; refuses the first
        ticket in the caller's order not yet ``answered``."""
        if column == "answers":
            self.resolve()
        idx = self.index(tickets)
        window = self.window(idx)
        answered = self.answered[window]
        if not answered.all():
            raise ServiceError(
                f"ticket {idx[int(answered.argmin())]} is still queued; "
                "advance time or drain()"
            )
        out = getattr(self, column)[window]
        return out if window is idx else out.copy()
