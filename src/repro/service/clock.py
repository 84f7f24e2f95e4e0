"""Deterministic simulated clock shared by the serving subsystem.

Everything in :mod:`repro.service` is timed against this clock rather than
wall time: arrivals carry explicit timestamps, wait-triggered flushes fire at
exact modeled deadlines, and batch completions are arrival-plus-modeled-cost.
The whole subsystem is therefore reproducible bit for bit — the same query
trace always produces the same batches, latencies and statistics, with no
flakiness from scheduler jitter or host load.

:class:`WallClock` is the measured counterpart: a monotone real-time source
(``time.perf_counter`` anchored at construction) with the same read
interface.  It cannot be advanced — real time advances itself — so it is not
a drop-in replacement for :class:`SimulatedClock` inside the serving loops;
its role is *measurement*: the calibration harness
(:mod:`repro.backends.calibrate`) times real kernel launches against it to
fit the cost constants that dispatch then uses.
"""

from __future__ import annotations

import math
import time

from ..boundary import duration, instant
from ..errors import ServiceError

__all__ = ["SimulatedClock", "WallClock"]


class SimulatedClock:
    """A monotone simulated time source (seconds as a float).

    Time only moves when a caller advances it; it never moves backwards.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = instant(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        return self.advance_to(self._now + duration(dt, "a clock delta"))

    def advance_to(self, t: float) -> float:
        """Move time forward to the absolute instant ``t`` and return it.

        Advancing to the current time is a no-op; advancing into the past,
        or to a NaN, infinite, boolean or string instant, is an error.
        """
        if t.__class__ is not float or not self._now <= t < math.inf:
            t = instant(t)  # a finite float at or after now skips this call
            if t < self._now:
                raise ServiceError(
                    f"cannot move the clock backwards (now={self._now}, requested={t})"
                )
        self._now = t
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"SimulatedClock(now={self._now!r})"


class WallClock:
    """A monotone *real-time* source with the :class:`SimulatedClock` read API.

    ``now`` is seconds of real elapsed time since construction (from
    ``time.perf_counter``, so it is monotone and unaffected by system clock
    adjustments).  Unlike the simulated clock it cannot be moved by callers:
    :meth:`advance` and :meth:`advance_to` raise — wall time advances on its
    own.  Used by the backend calibration harness to time real launches.

    >>> clock = WallClock()
    >>> clock.now >= 0.0
    True
    >>> clock.advance(1.0)
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: a WallClock cannot be advanced; real time advances itself
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()

    @property
    def now(self) -> float:
        """Seconds of real elapsed time since this clock was created."""
        return time.perf_counter() - self._origin

    def advance(self, dt: float) -> float:
        """Unsupported: wall time cannot be moved by callers."""
        raise ServiceError(
            "a WallClock cannot be advanced; real time advances itself"
        )

    def advance_to(self, t: float) -> float:
        """Unsupported: wall time cannot be moved by callers."""
        raise ServiceError(
            "a WallClock cannot be advanced; real time advances itself"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"WallClock(now={self.now!r})"
