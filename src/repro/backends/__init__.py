"""Real kernel backends and measured calibration for the serving stack.

Until this package, the dispatcher's "devices" were priced fictions: every
backend ran the same vectorized NumPy kernel and only the modeled roofline
constants differed.  :mod:`repro.backends` makes them real:

* :mod:`~repro.backends.base` — the contract (``compile`` a tree's host
  :class:`~repro.lca.InlabelIndex`, built once per dataset, into an artifact
  with ``n`` and ``query(xs, ys, *, ctx=None)``, booking the backend's own
  build charge) and the process-wide backend registry;
* :mod:`~repro.backends.numpy_backend` — the existing vectorized paths as
  backends (``"numpy"``, ``"numpy-seq"``): ``compile`` returns the
  :class:`~repro.lca.InlabelLCA` / :class:`~repro.lca.SequentialInlabelLCA`
  view over the index itself;
* :mod:`~repro.backends.smallbatch` — a tuned low-overhead kernel for small
  batches (``"smallbatch"``): compile-time-specialized tables, fused probe
  passes, preallocated answer scratch;
* :mod:`~repro.backends.calibrate` — the measurement harness: seeded
  batch-size grids, robust least-squares fits, JSON
  :class:`~repro.backends.calibrate.CalibrationProfile` artifacts that
  :class:`~repro.service.dispatch.CostModelDispatcher` consumes in place of
  the hardcoded specs.

Kernels answer; the dispatcher prices.  Importing the package registers the
built-in backends by key.  Registration is factory-based and side-effect
free: no scratch is allocated until a backend is actually requested through
:func:`get_kernel_backend`.
"""

from .base import (
    CompiledKernel,
    KernelBackend,
    available_backends,
    get_kernel_backend,
    register_backend,
)
from .calibrate import (
    DEFAULT_CALIBRATION_GRID,
    BackendCalibration,
    CalibrationProfile,
    calibrate_backends,
    fit_launch_cost,
)
from .numpy_backend import NUMPY_BACKEND_KEY, NUMPY_SEQ_BACKEND_KEY, NumpyBackend
from .smallbatch import SMALLBATCH_BACKEND_KEY, SmallBatchBackend

__all__ = [
    "CompiledKernel",
    "KernelBackend",
    "register_backend",
    "get_kernel_backend",
    "available_backends",
    "NumpyBackend",
    "NUMPY_BACKEND_KEY",
    "NUMPY_SEQ_BACKEND_KEY",
    "SmallBatchBackend",
    "SMALLBATCH_BACKEND_KEY",
    "BackendCalibration",
    "CalibrationProfile",
    "calibrate_backends",
    "fit_launch_cost",
    "DEFAULT_CALIBRATION_GRID",
]


def _register_builtin_backends() -> None:
    register_backend(NUMPY_BACKEND_KEY, NumpyBackend, replace=True)
    register_backend(
        NUMPY_SEQ_BACKEND_KEY,
        lambda: NumpyBackend(sequential=True),
        replace=True,
    )
    register_backend(SMALLBATCH_BACKEND_KEY, SmallBatchBackend, replace=True)


_register_builtin_backends()
