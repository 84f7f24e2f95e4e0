"""Per-ticket state: one growable table of columns under one ticket counter.

Tickets are consecutive integers, so everything the serving stack remembers
per query — answers, latencies, which replica holds it — lives in flat arrays
indexed by ticket, written and read back with one slice or fancy-indexing
operation.  :class:`TicketTable` is the single owner of that layout, for the
single-node service and the cluster alike.  It keeps two rules no caller has
to remember: every column has the table's one capacity, and a column declared
zeroed reads zero wherever nothing was written, however often the table grew.
A ticket that arrives from outside is validated in :meth:`TicketTable.index`
and nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np
from numpy.typing import ArrayLike, DTypeLike

from ..boundary import ticket_ids
from ..errors import ServiceError

__all__ = ["TicketTable", "grow_table"]

#: Smallest table capacity (grows by doubling from there).
_MIN_CAPACITY = 1024


def grow_table(
    table: np.ndarray, used: int, needed: int, *, zeroed: bool = False
) -> np.ndarray:
    """Return ``table`` grown by capacity doubling to hold ``needed`` slots.

    The first ``used`` entries are preserved; with ``zeroed`` every slot past
    them reads zero, otherwise they are uninitialized.  Returns the input
    unchanged when it is already large enough.
    """
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
    >>> table.index([3, 0]).tolist()
    [3, 0]
    >>> table.index([1, 4])
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: unknown ticket 4
    """

    def __init__(self, capacity: int = 0, **dtypes: DTypeLike) -> None:
        #: How many tickets have been issued so far.
        self.issued = 0
        self.capacity = max(_MIN_CAPACITY, int(capacity))
        # Column name -> whether it must read zero where nothing was written.
        self._zeroed: Dict[str, bool] = {}
        for name, dtype in dtypes.items():
            self._zeroed[name] = False
            setattr(self, name, np.empty(self.capacity, dtype=dtype))

    if TYPE_CHECKING:  # columns are attributes a type checker cannot see
        def __getattr__(self, name: str) -> np.ndarray: ...

    def zeros(self, name: str, dtype: DTypeLike) -> np.ndarray:
        """Column ``name``, created zero-filled on first use.

        It reads zero on every slot nothing was written to — past any later
        reallocation, and when it is created after one (a column used only by
        rare tickets, such as retried ones, costs nothing until the first).
        """
        if name not in self._zeroed:
            self._zeroed[name] = True
            setattr(self, name, np.zeros(self.capacity, dtype=dtype))
        return getattr(self, name)

    def issue(self, count: int = 1) -> int:
        """Issue ``count`` consecutive tickets; returns the first (a Python int)."""
        first = self.issued
        # Bumped before growing: ``issued`` is what the table must now hold,
        # and it may already exceed the old capacity — so growth copies the
        # whole old table, and every column grows together.
        self.issued = first + count
        if self.issued > self.capacity:
            old = self.capacity
            for name, zeroed in self._zeroed.items():
                grown = grow_table(getattr(self, name), old, self.issued, zeroed=zeroed)
                setattr(self, name, grown)
                self.capacity = grown.size
        return first

    def index(self, tickets: ArrayLike) -> np.ndarray:
        """``tickets`` as a 1-D ``int64`` array of issued tickets, or an error.

        :data:`repro.boundary.ticket_ids` first (an integer scalar is a
        one-ticket array), then :class:`~repro.errors.ServiceError` for the
        first ticket that was never issued.
        """
        idx = ticket_ids(tickets)
        if idx.size and not 0 <= idx.min() <= idx.max() < self.issued:
            unknown = (idx < 0) | (idx >= self.issued)  # only to name the first
            raise ServiceError(f"unknown ticket {idx[int(unknown.argmax())]}")
        return idx
