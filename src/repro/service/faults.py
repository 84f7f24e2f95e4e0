"""Deterministic fault schedules for the cluster serving layer.

The *fault model* of :class:`~repro.service.cluster.ClusterService`: a
:class:`FaultInjector` holds a time-sorted schedule of :class:`FaultEvent`
records on the simulated-time axis the cluster's clocks run on.  The cluster
pops due events whenever its frontier advances (submission, ``advance_to``,
``drain``) and applies them — so fault timing is exactly as deterministic
and replayable as the traffic itself.  Seeded *random* fault timing (e.g.
Poisson-timed transient storms) is produced by the chaos scenario builders
in :mod:`repro.workloads.chaos`, which sample event times up front and hand
the frozen schedule to an injector; nothing here draws randomness.

Supported actions
-----------------
``kill``
    Mark a replica dead.  Its pending queries are evicted and re-dispatched
    to surviving copies (see ``docs/chaos.md``).
``recover``
    Mark a killed replica live again.
``slowdown``
    Multiply a replica's kernel service times by ``factor`` >= 1.0 (``1.0``
    restores full speed).
``transient``
    Arm ``count`` one-shot batch failures on a replica: the next ``count``
    batches it would serve fail and are re-dispatched instead.
``add``
    Scale out: add a fresh replica to the cluster (``replica`` is ignored;
    the new replica takes the next free id).
``retire``
    Scale in: drain a replica and remove it from the active set.

>>> events = [
...     FaultEvent(time_s=0.10, action="kill", replica=1),
...     FaultEvent(time_s=0.25, action="recover", replica=1),
... ]
>>> inj = FaultInjector(events)
>>> [e.action for e in inj.advance(0.2)]
['kill']
>>> inj.pending
1
>>> [e.action for e in inj.advance(0.3)]
['recover']
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple

from ..boundary import Check, settle, workload_integer, workload_number
from ..errors import ConfigurationError

__all__ = ["FAULT_ACTIONS", "FaultEvent", "FaultInjector"]

#: Every action a :class:`FaultEvent` may carry.
FAULT_ACTIONS: Tuple[str, ...] = (
    "kill",
    "recover",
    "slowdown",
    "transient",
    "add",
    "retire",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, pinned to a simulated-time instant.

    ``replica`` identifies the target replica for every action except
    ``add`` (which creates a new replica and ignores it).  ``factor`` is
    only read by ``slowdown``; ``count`` only by ``transient``.  Each is
    checked here, so a bad schedule fails when built, never mid-serve.

    >>> FaultEvent(time_s=1.0, action="slowdown", replica=0, factor=4.0).factor
    4.0
    >>> FaultEvent(time_s=0.5, action="add").replica
    -1
    """

    time_s: float
    action: str
    replica: int = -1
    factor: float = 1.0
    count: int = 1

    CHECKS: ClassVar[Dict[str, Check]] = {
        **dict.fromkeys(("time_s", "factor"), workload_number),
        **dict.fromkeys(("replica", "count"), workload_integer),
    }

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {', '.join(FAULT_ACTIONS)}"
            )
        settle(self, self.CHECKS)
        if self.action != "add" and self.replica < 0:
            raise ConfigurationError(
                f"{self.action!r} fault needs a replica id >= 0, got {self.replica}"
            )
        if self.action == "slowdown" and not self.factor >= 1.0:
            raise ConfigurationError(
                f"slowdown factor must be >= 1.0, got {self.factor!r}"
            )
        if self.action == "transient" and self.count < 1:
            raise ConfigurationError(f"transient count must be >= 1, got {self.count}")


@dataclass
class FaultInjector:
    """A time-sorted, replayable schedule of :class:`FaultEvent` records.

    The injector is a passive cursor: :meth:`advance` pops every event due
    at or before ``t`` (stable order — ties keep construction order) and
    returns them; the cluster owns liveness state and applies the effects,
    so an empty schedule is a provable no-op.

    >>> inj = FaultInjector([FaultEvent(time_s=2.0, action="kill", replica=0)])
    >>> inj.advance(1.0)
    []
    >>> inj.next_time_s
    2.0
    >>> len(inj.advance(2.0))
    1
    >>> inj.pending
    0
    """

    events: Iterable[FaultEvent] = ()
    _schedule: Tuple[FaultEvent, ...] = field(init=False, repr=False)
    _cursor: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self._schedule = tuple(sorted(self.events, key=lambda e: e.time_s))
        self._times = [event.time_s for event in self._schedule]
        self.events = self._schedule

    @property
    def pending(self) -> int:
        """How many events have not been popped yet."""
        return len(self._schedule) - self._cursor

    @property
    def next_time_s(self) -> Optional[float]:
        """The due time of the next unapplied event, or ``None`` if drained."""
        if self._cursor >= len(self._schedule):
            return None
        return self._schedule[self._cursor].time_s

    def advance(self, t: float) -> List[FaultEvent]:
        """Pop and return every event with ``time_s <= t``, oldest first."""
        start, self._cursor = self._cursor, bisect_right(self._times, t, self._cursor)
        return list(self._schedule[start:self._cursor])
