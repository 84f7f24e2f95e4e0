"""Measured calibration for the serving stack's kernels.

The dispatcher prices a batch with a modeled roofline spec by default.
:mod:`~repro.backends.calibrate` is the measurement harness that replaces
those specs with the host's own numbers: it times the artifact each serving
backend key builds (through :data:`repro.lca.artifacts.ARTIFACT_BUILDERS`,
the table the index registry reads) over seeded batch-size grids, fits
robust launch-overhead + per-query lines, and ships them as a JSON
:class:`~repro.backends.calibrate.CalibrationProfile` that
:class:`~repro.service.dispatch.CostModelDispatcher` consumes.

:mod:`~repro.backends.base` names the artifact contract,
:class:`~repro.lca.artifacts.CompiledKernel`.  Kernels answer; the
dispatcher prices.
"""

from .base import CompiledKernel
from .calibrate import (
    DEFAULT_CALIBRATION_GRID,
    BackendCalibration,
    CalibrationProfile,
    calibrate_backends,
    fit_launch_cost,
)

__all__ = [
    "CompiledKernel",
    "BackendCalibration",
    "CalibrationProfile",
    "calibrate_backends",
    "fit_launch_cost",
    "DEFAULT_CALIBRATION_GRID",
]
