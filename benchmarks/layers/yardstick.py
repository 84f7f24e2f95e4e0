"""A fixed yardstick run next to every pass, to take the machine's gear out.

The reference box is a shared 2-vCPU guest that changes speed for minutes at
a time: the same commit and seed measured 290 k and 516 k queries/s five
minutes apart (README: noise floor).  Raw host time therefore says more about
the neighbours than about the code.  The yardstick is a small piece of work
that belongs to the benchmark, touches nothing under ``src/`` and never
changes: timed right before and right after each pass, it says how fast the
machine was *then*.  A pass's host seconds are scaled by ``REFERENCE_S`` over
the yardstick's seconds, i.e. expressed in seconds of the reference box in its
usual gear.

Two kernels, because the workloads stress two different things and a kernel
of the wrong character does not track the machine (r = 0.1-0.3 per pass):
many small NumPy calls under Python control, as a serving pass makes, and a
gather / stable sort / scan over arrays that do not fit the mid-level cache,
as preprocessing makes.  Their geometric mean tracked every workload's
10-pass window medians with r = 0.6-0.9 and cut the spread of those medians
from 0.08-0.15 to 0.05-0.08.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["REFERENCE_S", "Yardstick"]

#: The yardstick's usual reading on the reference box, in seconds.  It only
#: fixes the unit: a different constant rescales every normalised time alike.
REFERENCE_S = 0.0255

_clock = time.perf_counter


class Yardstick:
    """Callable: run both kernels once, return the geometric mean of their seconds.

    Inputs come from a fixed generator, not from the run's seed: the yardstick
    measures the machine, so it must be the same work in every run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20210517)
        self._table = rng.integers(0, 1 << 14, size=1 << 14)
        self._batches = [rng.integers(0, 1 << 14, size=40) for _ in range(64)]
        self._values = rng.integers(0, 1 << 18, size=1 << 18)
        self._index = rng.integers(0, 1 << 18, size=1 << 18)

    def _small_calls(self) -> int:
        table, total = self._table, 0
        for _ in range(100):
            for batch in self._batches:
                looked_up = table[batch]
                low = np.minimum(looked_up, batch)
                total += int(np.where(low > 8_000, low, batch)[0])
        return total

    def _large_arrays(self) -> int:
        gathered = self._values[self._index]
        order = np.argsort(gathered, kind="stable")
        return int(np.cumsum(gathered[order])[self._index][0])

    def __call__(self) -> float:
        t0 = _clock()
        self._small_calls()
        t1 = _clock()
        self._large_arrays()
        t2 = _clock()
        return math.sqrt((t1 - t0) * (t2 - t1))
