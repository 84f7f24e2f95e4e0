"""Arrival-time processes: when queries reach the service.

Every benchmark before this package drove the serving stack with uniformly
spaced synthetic arrivals — one traffic shape, and the least stressful one.
Real traffic is bursty, periodic and adversarial, and the standard
mathematical model for "arrivals at an arbitrary time-varying rate" is the
*inhomogeneous Poisson point process* (IPPP): arrivals in disjoint intervals
are independent, and the expected count in ``[a, b)`` is ``∫ λ(t) dt`` for an
intensity function ``λ``.  Hohmann (arXiv:1901.10754) surveys how to simulate
such processes; this module implements the classic recipes on top of NumPy:

* :class:`DeterministicArrivals` — the uniform spacing the old benchmarks
  used, kept as the degenerate baseline (and for bit-compatibility with
  :func:`~repro.experiments.service_experiments.offered_load_sweep`);
* :class:`PoissonArrivals` — a homogeneous Poisson process, simulated in
  bulk by conditional uniformity (draw the window's Poisson count, then
  sort that many uniforms — two rng calls, no loop);
* :class:`InhomogeneousPoissonArrivals` — an arbitrary intensity function,
  simulated by *thinning* (Lewis & Shedler): draw a homogeneous process at
  the peak rate, keep each candidate at ``t`` with probability
  ``λ(t) / peak``;
* :class:`MarkovModulatedArrivals` — a two-state (on/off) Markov-modulated
  Poisson process: exponentially distributed bursts of high-rate traffic
  separated by exponentially distributed lulls, the standard model for
  bursty sources; sojourns are drawn in chunked bulk blocks and arrivals
  placed with one vectorized count draw + one sort.

All processes emit one sorted float64 array of *absolute* arrival times —
exactly the ``at=`` axis :meth:`repro.service.LCAQueryService.submit_many`
and :meth:`repro.service.ClusterService.submit_many` consume — and draw all
randomness from a caller-supplied :class:`numpy.random.Generator`, so a
scenario replay is a deterministic function of its seed.

Intensity functions are defined on *phase-relative* time (``tau`` seconds
since the phase started), which keeps a scenario's shape independent of
where its phases land on the absolute axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List

import numpy as np

from ..boundary import Check, settle, workload_number
from ..errors import ConfigurationError

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "InhomogeneousPoissonArrivals",
    "MarkovModulatedArrivals",
    "constant_intensity",
    "diurnal_intensity",
    "flash_crowd_intensity",
]

#: An intensity function: phase-relative times (s) -> instantaneous rate (q/s).
IntensityFn = Callable[[np.ndarray], np.ndarray]


class ArrivalProcess:
    """Base class for arrival-time generators.

    Subclasses implement :meth:`generate` and :meth:`expected_count`; both
    must be deterministic functions of ``(t0, duration, rng state)``.
    """

    def generate(
        self, t0: float, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted absolute arrival times in ``[t0, t0 + duration)``."""
        raise NotImplementedError

    def expected_count(self, duration: float) -> float:
        """Expected number of arrivals over ``duration`` seconds."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}()"


def _check_window(t0: float, duration: float) -> None:
    if duration < 0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    if not math.isfinite(t0) or not math.isfinite(duration):
        raise ConfigurationError("t0 and duration must be finite")


def _poisson_times(
    rate: float, t0: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrivals at ``rate`` in ``[t0, t0 + duration)``.

    Bulk simulation via the conditional-uniformity property (the IPPP
    recipe Hohmann, arXiv:1901.10754, calls sampling "number and location
    of points" separately): the count over the window is
    ``Poisson(rate * duration)``, and conditional on the count the arrival
    times are iid uniform over the window, sorted.  Exactly two rng calls
    and one sort — no Python loop, and exact (not a discretization).

    >>> import numpy as np
    >>> times = _poisson_times(1e4, 1.0, 0.5, np.random.default_rng(0))
    >>> bool((times[:-1] <= times[1:]).all())
    True
    >>> bool(times[0] >= 1.0) and bool(times[-1] < 1.5)
    True
    """
    if duration == 0 or rate == 0:
        return np.empty(0, dtype=np.float64)
    count = int(rng.poisson(rate * duration))
    if count == 0:
        return np.empty(0, dtype=np.float64)
    offsets = rng.random(count)
    offsets.sort()
    return t0 + offsets * duration


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Uniformly spaced arrivals at a constant rate (the legacy baseline).

    Exactly the arrival axis the pre-scenario benchmarks built by hand
    (``np.arange(q) / rate``), so a steady scenario replay can reproduce
    their numbers bit for bit.

    >>> import numpy as np
    >>> p = DeterministicArrivals(rate_qps=4.0)
    >>> p.generate(0.0, 1.0, np.random.default_rng(0)).tolist()
    [0.0, 0.25, 0.5, 0.75]
    """

    rate_qps: float

    CHECKS: ClassVar[Dict[str, Check]] = {"rate_qps": workload_number}

    def __post_init__(self) -> None:
        settle(self, self.CHECKS)

    def generate(
        self, t0: float, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(t0, duration)
        count = int(round(self.rate_qps * duration))
        if count == 0:
            return np.empty(0, dtype=np.float64)
        return t0 + np.arange(count, dtype=np.float64) / self.rate_qps

    def expected_count(self, duration: float) -> float:
        return float(round(self.rate_qps * duration))


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: memoryless arrivals at a constant rate.

    The count over a window of length ``T`` is Poisson(``rate * T``) and the
    gaps are iid exponential — the classical model for uncorrelated open-loop
    traffic.

    >>> import numpy as np
    >>> p = PoissonArrivals(rate_qps=1e4)
    >>> times = p.generate(0.0, 1.0, np.random.default_rng(7))
    >>> 9_500 < times.size < 10_500    # count concentrates around rate * T
    True
    """

    rate_qps: float

    CHECKS = DeterministicArrivals.CHECKS

    def __post_init__(self) -> None:
        settle(self, self.CHECKS)

    def generate(
        self, t0: float, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(t0, duration)
        return _poisson_times(self.rate_qps, t0, duration, rng)

    def expected_count(self, duration: float) -> float:
        return self.rate_qps * duration


class InhomogeneousPoissonArrivals(ArrivalProcess):
    """Inhomogeneous Poisson process with an arbitrary intensity function.

    Simulated by *thinning* (Lewis & Shedler 1979; see Hohmann,
    arXiv:1901.10754): draw a homogeneous Poisson process at the peak rate
    ``peak_qps``, then keep the candidate at phase-relative time ``tau``
    with probability ``intensity(tau) / peak_qps``.  The result is exact —
    not a discretization — provided ``intensity`` never exceeds
    ``peak_qps``, which is validated on every generated candidate.

    Parameters
    ----------
    intensity:
        Vectorized function of phase-relative time (seconds since the phase
        start) returning instantaneous rates in queries/s.
    peak_qps:
        A tight upper bound on ``intensity`` over the phase.  Tighter bounds
        thin fewer candidates and are proportionally cheaper.

    >>> import numpy as np
    >>> p = InhomogeneousPoissonArrivals(constant_intensity(5e3), peak_qps=5e3)
    >>> times = p.generate(2.0, 1.0, np.random.default_rng(3))
    >>> 4_500 < times.size < 5_500     # degenerates to homogeneous Poisson
    True
    """

    def __init__(self, intensity: IntensityFn, *, peak_qps: float) -> None:
        if peak_qps <= 0:
            raise ConfigurationError("peak_qps must be positive")
        self.intensity = intensity
        self.peak_qps = float(peak_qps)

    def generate(
        self, t0: float, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(t0, duration)
        candidates = _poisson_times(self.peak_qps, 0.0, duration, rng)
        if candidates.size == 0:
            return candidates
        rates = np.asarray(self.intensity(candidates), dtype=np.float64)
        if rates.shape != candidates.shape:
            raise ConfigurationError("intensity must return one rate per input time")
        if (rates < 0).any():
            raise ConfigurationError("intensity must be non-negative")
        if rates.max() > self.peak_qps * (1.0 + 1e-9):
            raise ConfigurationError(
                f"intensity exceeds peak_qps={self.peak_qps} "
                f"(max {rates.max():.6g}); thinning would under-sample"
            )
        keep = rng.random(candidates.size) * self.peak_qps < rates
        return t0 + candidates[keep]

    def expected_count(self, duration: float) -> float:
        """Expected arrivals: ``∫ intensity`` via a fine trapezoidal grid."""
        if duration == 0:
            return 0.0
        grid = np.linspace(0.0, duration, num=4097)
        rates = np.asarray(self.intensity(grid), dtype=np.float64)
        # np.trapezoid on NumPy >= 2, np.trapz before — resolved by name so
        # neither spelling is a hard (type-checked) attribute reference.
        integrate = getattr(np, "trapezoid", None)
        if integrate is None:  # pragma: no cover - NumPy < 2.0
            integrate = getattr(np, "trapz")
        return float(integrate(rates, grid))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"InhomogeneousPoissonArrivals(peak_qps={self.peak_qps})"


@dataclass(frozen=True)
class MarkovModulatedArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty on/off traffic).

    The source alternates between an *on* state emitting Poisson arrivals at
    ``on_qps`` and an *off* state emitting at ``off_qps`` (0 by default);
    sojourn times in each state are exponential with means ``mean_on_s`` /
    ``mean_off_s``.  The long-run average rate is the sojourn-weighted mix
    of the two state rates — see :meth:`expected_count`.

    >>> import numpy as np
    >>> p = MarkovModulatedArrivals(on_qps=1e4, mean_on_s=0.01, mean_off_s=0.01)
    >>> times = p.generate(0.0, 1.0, np.random.default_rng(5))
    >>> 3_500 < times.size < 6_500     # ~ on_qps * duty cycle (0.5)
    True
    """

    on_qps: float
    mean_on_s: float
    mean_off_s: float
    off_qps: float = 0.0
    start_on: bool = True

    def __post_init__(self) -> None:
        if self.on_qps < 0 or self.off_qps < 0:
            raise ConfigurationError("state rates must be non-negative")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ConfigurationError("mean sojourn times must be positive")

    def generate(
        self, t0: float, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Bulk MMPP simulation: chunked sojourn draws, then bulk arrivals.

        Sojourns are drawn in alternating on/off blocks (one bulk
        exponential call per state per chunk, six-sigma headroom over the
        expected cycle count, extending in the rare shortfall) instead of
        one Python-loop draw per state switch.  Arrival placement then uses
        the conditional-uniformity property per interval: one vectorized
        ``Poisson(rate * span)`` count draw over all intervals, one bulk
        uniform draw for the positions, and a single sort (the intervals
        are disjoint and ascending, so one global sort orders the stream).
        """
        _check_window(t0, duration)
        if duration == 0:
            return np.empty(0, dtype=np.float64)
        mean_first = self.mean_on_s if self.start_on else self.mean_off_s
        mean_second = self.mean_off_s if self.start_on else self.mean_on_s
        mean_cycle = self.mean_on_s + self.mean_off_s
        blocks: List[np.ndarray] = []
        covered = 0.0
        while covered < duration:
            cycles = (duration - covered) / mean_cycle
            k = int(cycles + 6.0 * math.sqrt(cycles) + 4.0)
            first = rng.exponential(mean_first, size=k)
            second = rng.exponential(mean_second, size=k)
            block = np.empty(2 * k, dtype=np.float64)
            block[0::2] = first
            block[1::2] = second
            blocks.append(block)
            covered += float(block.sum())
            # A block holds an even number of sojourns, so the next chunk
            # (if the six-sigma headroom ever falls short) starts in the
            # same state again.
        sojourns = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        ends = np.cumsum(sojourns)
        starts = ends - sojourns
        m = int(np.searchsorted(starts, duration, side="left"))
        starts = starts[:m]
        spans = np.minimum(ends[:m], duration) - starts
        rate_first = self.on_qps if self.start_on else self.off_qps
        rate_second = self.off_qps if self.start_on else self.on_qps
        rates = np.where(np.arange(m) % 2 == 0, rate_first, rate_second)
        counts = rng.poisson(rates * spans)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.float64)
        positions = rng.random(total)
        times = np.repeat(starts, counts) + positions * np.repeat(spans, counts)
        times.sort()
        return t0 + times

    def expected_count(self, duration: float) -> float:
        duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        return (duty * self.on_qps + (1.0 - duty) * self.off_qps) * duration


# ----------------------------------------------------------------------
# Intensity-function library for the inhomogeneous process
# ----------------------------------------------------------------------
def constant_intensity(rate_qps: float) -> IntensityFn:
    """A flat intensity (makes the inhomogeneous process homogeneous).

    >>> constant_intensity(100.0)(np.array([0.0, 1.0])).tolist()
    [100.0, 100.0]
    """
    if rate_qps < 0:
        raise ConfigurationError("rate_qps must be non-negative")

    def intensity(tau: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(tau, dtype=np.float64), rate_qps)

    return intensity


def diurnal_intensity(base_qps: float, peak_qps: float, period_s: float) -> IntensityFn:
    """A raised-cosine day/night cycle: ``base`` at tau=0, ``peak`` mid-period.

    ``lambda(tau) = base + (peak - base) * (1 - cos(2 pi tau / period)) / 2``.

    >>> fn = diurnal_intensity(100.0, 500.0, period_s=8.0)
    >>> fn(np.array([0.0, 4.0])).tolist()    # trough at 0, peak mid-period
    [100.0, 500.0]
    """
    if period_s <= 0:
        raise ConfigurationError("period_s must be positive")
    if base_qps < 0 or peak_qps < base_qps:
        raise ConfigurationError("need 0 <= base_qps <= peak_qps")

    def intensity(tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=np.float64)
        swing = 0.5 * (1.0 - np.cos(2.0 * np.pi * tau / period_s))
        return base_qps + (peak_qps - base_qps) * swing

    return intensity


def flash_crowd_intensity(
    base_qps: float,
    flash_qps: float,
    *,
    flash_start_s: float,
    flash_duration_s: float,
    ramp_s: float = 0.0,
) -> IntensityFn:
    """A baseline rate with one trapezoidal spike (the flash crowd).

    The rate ramps linearly from ``base_qps`` to ``flash_qps`` over
    ``ramp_s`` seconds starting at ``flash_start_s``, holds for
    ``flash_duration_s``, then ramps back down.

    >>> fn = flash_crowd_intensity(10.0, 1000.0, flash_start_s=1.0,
    ...                            flash_duration_s=2.0)
    >>> fn(np.array([0.5, 2.0, 3.5])).tolist()
    [10.0, 1000.0, 10.0]
    """
    if base_qps < 0 or flash_qps < base_qps:
        raise ConfigurationError("need 0 <= base_qps <= flash_qps")
    if flash_duration_s < 0 or ramp_s < 0:
        raise ConfigurationError("durations must be non-negative")

    up0 = flash_start_s - ramp_s
    down1 = flash_start_s + flash_duration_s + ramp_s

    def intensity(tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=np.float64)
        if ramp_s > 0:
            rising = np.clip((tau - up0) / ramp_s, 0.0, 1.0)
            falling = np.clip((down1 - tau) / ramp_s, 0.0, 1.0)
            shape = np.minimum(rising, falling)
        else:
            inside = (tau >= flash_start_s) & (tau <= flash_start_s + flash_duration_s)
            shape = inside.astype(np.float64)
        return base_qps + (flash_qps - base_qps) * shape

    return intensity
