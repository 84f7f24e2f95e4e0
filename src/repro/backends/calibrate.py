"""Measured calibration: fit the host query's cost line from real launches.

The modeled dispatch path prices batches with hardcoded roofline specs
(:mod:`repro.device.specs`): deterministic, reproducible, and wrong about
the machine actually running the kernels.  This module closes the loop the
way the paper does — measure, fit, then dispatch on the fit:

1. :func:`calibrate_backends` runs a **seeded grid** of batch sizes through
   the one host query (every backend key's artifact is a view that runs it)
   under a :class:`~repro.service.clock.WallClock` timer, taking the median
   of repeated timed ``view.query(xs, ys)`` calls per grid point;
2. :func:`fit_launch_cost` fits ``time ≈ launch_overhead + per_query · q``
   to those medians by robust least squares (IRLS with Huber weights), so a
   scheduler hiccup at one grid point cannot poison the line;
3. the fit, written under every requested key, ships as a JSON
   :class:`CalibrationProfile` that
   :class:`~repro.service.dispatch.CostModelDispatcher` consumes in place of
   the modeled specs.

A profile only speaks for the range it measured: :meth:`CalibrationProfile.
predict` raises a typed :class:`~repro.errors.DeviceError` for batch sizes
outside a backend's calibrated ``[min_batch, max_batch]`` window rather than
silently extrapolating the line (the drift trap — an extrapolated fiction is
exactly what calibration exists to remove).

Wall time is inherently noisy, so measured profiles are not reproducible bit
for bit — which is why they are an explicit opt-in artifact (a file a config
points at) and the modeled specs remain the deterministic default.  For
deterministic tests, inject ``timer=`` with a scripted time source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..boundary import count
from ..errors import DeviceError, ServiceError
from ..graphs.generators.random_trees import random_attachment_tree
from ..lca import build_inlabel_index
from ..lca.artifacts import ARTIFACT_BUILDERS
from ..service.clock import WallClock
from ..service.dispatch import make_backend

__all__ = [
    "BackendCalibration",
    "CalibrationProfile",
    "fit_launch_cost",
    "calibrate_backends",
    "DEFAULT_CALIBRATION_GRID",
]

#: Default batch-size grid: geometric, so the fit sees both the
#: overhead-dominated and the throughput-dominated regime.
DEFAULT_CALIBRATION_GRID: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

_PROFILE_VERSION = 1


@dataclass(frozen=True)
class BackendCalibration:
    """One backend's fitted cost line and the range it is valid over."""

    #: Serving backend key the fit belongs to.
    backend: str
    #: Fitted fixed cost per launch, seconds (the intercept; clamped ≥ 0).
    launch_overhead_s: float
    #: Fitted marginal cost per query, seconds (the slope; clamped > 0).
    per_query_s: float
    #: Smallest batch size the grid measured.
    min_batch: int
    #: Largest batch size the grid measured.
    max_batch: int
    #: Number of timed samples behind the fit.
    samples: int
    #: Mean absolute relative residual of the fit (fit-quality indicator).
    residual: float

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "launch_overhead_s": self.launch_overhead_s,
            "per_query_s": self.per_query_s,
            "min_batch": self.min_batch,
            "max_batch": self.max_batch,
            "samples": self.samples,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(
        cls, backend: str, data: Mapping[str, Any]
    ) -> "BackendCalibration":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {
            "launch_overhead_s",
            "per_query_s",
            "min_batch",
            "max_batch",
            "samples",
            "residual",
        }
        unknown = set(data) - known
        if unknown:
            raise ServiceError(
                f"unknown calibration fields for backend {backend!r}: "
                f"{sorted(unknown)}"
            )
        missing = known - set(data)
        if missing:
            raise ServiceError(
                f"missing calibration fields for backend {backend!r}: "
                f"{sorted(missing)}"
            )
        return cls(
            backend=backend,
            launch_overhead_s=float(data["launch_overhead_s"]),
            per_query_s=float(data["per_query_s"]),
            min_batch=int(data["min_batch"]),
            max_batch=int(data["max_batch"]),
            samples=int(data["samples"]),
            residual=float(data["residual"]),
        )


@dataclass(frozen=True)
class CalibrationProfile:
    """A set of per-backend cost fits, as measured on one machine."""

    #: Backend key → fitted cost line.
    entries: Dict[str, BackendCalibration]
    #: Provenance of the measurement (grid, seed, tree size, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    def backends(self) -> Tuple[str, ...]:
        """Calibrated backend keys, sorted."""
        return tuple(sorted(self.entries))

    def predict(self, backend_key: str, batch_size: int) -> float:
        """Predicted seconds for one launch of ``batch_size`` queries.

        Raises :class:`~repro.errors.DeviceError` when the backend is not in
        the profile or ``batch_size`` falls outside its calibrated range —
        a measured profile never extrapolates.
        """
        entry = self.entries.get(backend_key)
        if entry is None:
            raise DeviceError(
                f"no calibration for backend {backend_key!r}; "
                f"profile covers {list(self.backends())}"
            )
        q = int(batch_size)
        if q < entry.min_batch or q > entry.max_batch:
            raise DeviceError(
                f"batch of {q} queries is outside backend {backend_key!r}'s "
                f"calibrated range [{entry.min_batch}, {entry.max_batch}]; "
                f"recalibrate with a wider grid instead of extrapolating"
            )
        return entry.launch_overhead_s + entry.per_query_s * q

    def batch_range(self, backend_keys: Sequence[str]) -> Tuple[int, int]:
        """The batch-size window every listed backend is calibrated over."""
        lo = 1
        hi: Optional[int] = None
        for key in backend_keys:
            entry = self.entries.get(key)
            if entry is None:
                raise DeviceError(
                    f"no calibration for backend {key!r}; "
                    f"profile covers {list(self.backends())}"
                )
            lo = max(lo, entry.min_batch)
            hi = entry.max_batch if hi is None else min(hi, entry.max_batch)
        if hi is None or hi < lo:
            raise DeviceError(
                f"backends {list(backend_keys)} share no calibrated "
                f"batch-size range"
            )
        return lo, hi

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "version": _PROFILE_VERSION,
            "meta": dict(self.meta),
            "backends": {
                key: entry.to_dict() for key, entry in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CalibrationProfile":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        unknown = set(data) - {"version", "meta", "backends"}
        if unknown:
            raise ServiceError(
                f"unknown calibration profile fields: {sorted(unknown)}"
            )
        version = data.get("version")
        if version != _PROFILE_VERSION:
            raise ServiceError(
                f"unsupported calibration profile version {version!r} "
                f"(expected {_PROFILE_VERSION})"
            )
        backends = data.get("backends")
        if not isinstance(backends, Mapping) or not backends:
            raise ServiceError(
                "calibration profile must map at least one backend"
            )
        entries = {
            str(key): BackendCalibration.from_dict(str(key), entry)
            for key, entry in backends.items()
        }
        return cls(entries=entries, meta=dict(data.get("meta", {})))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibrationProfile":
        """Read a profile from a JSON file of :meth:`to_dict` form."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def fit_launch_cost(
    batch_sizes: Sequence[float], times_s: Sequence[float], *, iterations: int = 25
) -> Tuple[float, float, float]:
    """Robust fit of ``t ≈ a + b·q``; returns ``(a, b, residual)``.

    Iteratively reweighted least squares with Huber weights: points whose
    residual exceeds ~1.345 median-absolute-deviations are downweighted, so
    a single scheduler hiccup in the timing grid does not tilt the line.
    ``a`` (launch overhead) is clamped to ≥ 0 and ``b`` (per-query cost) to
    > 0, since negative costs are always measurement noise.
    """
    q = np.asarray(batch_sizes, dtype=np.float64)
    t = np.asarray(times_s, dtype=np.float64)
    if q.shape != t.shape or q.ndim != 1:
        raise ServiceError("batch_sizes and times_s must be equal-length 1-D")
    if q.size < 2:
        raise ServiceError("need at least two grid points to fit a cost line")
    w = np.ones_like(q)
    a = 0.0
    b = 0.0
    for _ in range(iterations):
        sw = float(w.sum())
        qm = float((w * q).sum()) / sw
        tm = float((w * t).sum()) / sw
        var = float((w * (q - qm) ** 2).sum())
        cov = float((w * (q - qm) * (t - tm)).sum())
        b = cov / var if var > 0 else 0.0
        a = tm - b * qm
        resid = t - (a + b * q)
        scale = float(np.median(np.abs(resid))) * 1.4826
        if scale <= 0.0:
            break
        w = np.minimum(1.0, (1.345 * scale) / np.maximum(np.abs(resid), 1e-300))
    a = max(a, 0.0)
    b = max(b, 1e-12)
    residual = float(np.mean(np.abs(t - (a + b * q)) / np.maximum(np.abs(t), 1e-300)))
    return a, b, residual


def calibrate_backends(
    backend_keys: Sequence[str],
    *,
    batch_sizes: Sequence[int] = DEFAULT_CALIBRATION_GRID,
    repeats: int = 5,
    warmup: int = 2,
    n_nodes: int = 4096,
    seed: int = 0,
    timer: Optional[Callable[[], float]] = None,
) -> CalibrationProfile:
    """Measure the host query once and fit its line; returns the profile.

    Every serving backend key's artifact (its :func:`~repro.service.dispatch.
    make_backend` variant's builder) is a view that runs the one host query,
    so one view is timed and every listed key gets the same fitted line: the
    keys differ in their modeled prices, not in host code.  The grid is
    seeded (one tree, one query stream per batch size); per grid point the
    median of ``repeats`` timed ``view.query(xs, ys)`` calls is taken (after
    ``warmup`` untimed calls).  ``timer`` defaults to a fresh
    :class:`~repro.service.clock.WallClock`; tests inject a scripted source.
    """
    if not backend_keys:
        raise ServiceError("calibrate_backends needs at least one backend key")
    backends = [make_backend(key) for key in backend_keys]
    repeats = count(repeats, "repeats")
    warmup = count(warmup, "warmup", least=0)
    n_nodes = count(n_nodes, "n_nodes")
    seed = count(seed, "seed", least=0)
    sizes = sorted({count(s, "batch_sizes") for s in batch_sizes})
    if len(sizes) < 2:
        raise ServiceError(
            f"need at least two distinct batch sizes to fit a cost line, "
            f"got {sizes}"
        )
    if timer is None:
        wall = WallClock()

        def timer() -> float:
            return wall.now

    parents = random_attachment_tree(n_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    # Every key's view runs the one host query: one timed pass, one line.
    view = ARTIFACT_BUILDERS[backends[0].variant](build_inlabel_index(parents))
    grid_times: List[float] = []
    for s in sizes:
        xs, ys = rng.integers(0, n_nodes, size=s), rng.integers(0, n_nodes, size=s)
        for _ in range(warmup):
            view.query(xs, ys)
        samples = []
        for _ in range(repeats):
            t0 = timer()
            view.query(xs, ys)
            samples.append(timer() - t0)
        grid_times.append(median(samples))
    overhead, per_query, residual = fit_launch_cost(sizes, grid_times)
    entries = {
        backend.key: BackendCalibration(
            backend=backend.key,
            launch_overhead_s=overhead,
            per_query_s=per_query,
            min_batch=sizes[0],
            max_batch=sizes[-1],
            samples=len(sizes) * repeats,
            residual=residual,
        )
        for backend in backends
    }
    meta = dict(n_nodes=n_nodes, seed=seed, repeats=repeats, warmup=warmup, grid=sizes)
    return CalibrationProfile(entries=entries, meta=meta)
