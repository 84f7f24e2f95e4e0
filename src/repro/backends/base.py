"""The kernel-backend contract: compile → bind → launch → readback.

The serving stack's :class:`~repro.service.dispatch.CostModelDispatcher`
chooses *which device* should answer a batch, but until this package every
"device" executed the very same vectorized NumPy kernel and only the modeled
charge differed.  This module defines the seam that makes backends real,
modeled on reikna's CLUDA device layer:

* a :class:`KernelBackend` turns a raw dataset (a parent array) into a
  :class:`CompiledKernel` — the analogue of compiling a CUDA kernel for one
  problem instance — and publishes its :class:`BackendCapabilities` (dtype
  and size limits, parallelism) so harnesses can negotiate workloads;
* a :class:`CompiledKernel` answers query batches.  The explicit lifecycle is
  ``bind(xs, ys) → launch() → readback()`` (stage arrays, execute, fetch
  results); :meth:`CompiledKernel.query` fuses the three for the serving hot
  path and matches the artifact API of the legacy LCA classes, so the index
  registry can cache compiled kernels exactly like any other artifact.

Answers are part of the contract: every backend must be **bit-identical** to
the reference implementation (:mod:`repro.lca.reference`) on every valid
batch — backends may differ in *how fast* they answer, never in *what* they
answer.  The property tests in ``tests/test_backends.py`` enforce this
against every registered backend.

Backends register themselves in a process-wide registry
(:func:`register_backend`) keyed by a short string; the service layer's
:class:`~repro.service.dispatch.Backend` descriptors reference backends by
that key, which keeps the descriptors serializable (a config names
``("smallbatch", "numpy")``, not live objects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..device import ExecutionContext
from ..errors import ServiceError
from ..graphs.trees import as_query_ids

__all__ = [
    "BackendCapabilities",
    "Launch",
    "CompiledKernel",
    "KernelBackend",
    "register_backend",
    "get_kernel_backend",
    "available_backends",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """Static limits and traits one kernel backend publishes.

    Harnesses (the calibration grid, the benchmark sweeps) read these to
    stay inside what the backend can execute instead of discovering limits
    by crashing.
    """

    #: Largest batch one launch accepts (``None`` = unbounded).
    max_batch: Optional[int] = None
    #: Largest tree (node count) the backend can compile (``None`` = any).
    max_nodes: Optional[int] = None
    #: Query dtypes accepted by :meth:`CompiledKernel.bind`.
    dtypes: Tuple[str, ...] = ("int64",)
    #: Whether launches exploit parallelism (worker pool / modeled device)
    #: or run on the calling thread.
    parallel: bool = False

    def validate_batch(self, batch_size: int) -> None:
        """Raise :class:`~repro.errors.ServiceError` for an oversized batch."""
        if self.max_batch is not None and batch_size > self.max_batch:
            raise ServiceError(
                f"batch of {batch_size} queries exceeds the backend's "
                f"max_batch={self.max_batch} capability"
            )


class Launch:
    """One bound batch moving through the launch → readback lifecycle.

    Returned by :meth:`CompiledKernel.bind` with the query arrays staged;
    :meth:`launch` executes the kernel (idempotent — a second call is a
    no-op) and :meth:`readback` returns the answers, launching first if the
    caller skipped the explicit step.
    """

    def __init__(
        self,
        run: Callable[[np.ndarray, np.ndarray], np.ndarray],
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        self._run = run
        self._xs = xs
        self._ys = ys
        self._answers: Optional[np.ndarray] = None

    @property
    def batch_size(self) -> int:
        """Number of queries staged in this launch."""
        return int(self._xs.size)

    def launch(self) -> "Launch":
        """Execute the kernel over the bound arrays (idempotent)."""
        if self._answers is None:
            self._answers = self._run(self._xs, self._ys)
        return self

    def readback(self) -> np.ndarray:
        """The answer array (executing the launch first if still pending)."""
        self.launch()
        assert self._answers is not None
        return self._answers


class CompiledKernel:
    """A kernel compiled for one tree, ready to answer query batches.

    Subclasses implement :meth:`_execute` (the real computation, returning
    an int64 answer array) and :meth:`_charge` (the modeled cost of a batch,
    booked to an :class:`~repro.device.ExecutionContext`); the lifecycle and
    the artifact-compatible :meth:`query` entry point live here.
    """

    #: The owning backend's key (set by :meth:`KernelBackend.compile`).
    backend_key: str = ""

    def bind(self, xs: np.ndarray, ys: np.ndarray) -> Launch:
        """Stage one query batch: validate, convert and wrap it in a Launch."""
        xs = as_query_ids(xs)
        ys = as_query_ids(ys)
        return Launch(self._execute, xs, ys)

    def query(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        ctx: Optional[ExecutionContext] = None,
    ) -> np.ndarray:
        """bind → launch → readback in one call (the artifact API).

        ``ctx`` receives the backend's modeled charge for the batch, exactly
        like the legacy LCA artifact classes — which is what lets the index
        registry and the serving layer treat compiled kernels and legacy
        artifacts uniformly.
        """
        launch = self.bind(xs, ys)
        answers = launch.readback()
        if ctx is not None:
            self._charge(ctx, launch.batch_size)
        return answers

    # -- subclass hooks -------------------------------------------------
    def _execute(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _charge(self, ctx: ExecutionContext, batch_size: int) -> None:
        raise NotImplementedError


class KernelBackend:
    """One real execution backend: capabilities plus a compile step.

    Subclasses set :attr:`key` / :attr:`label` and implement
    :meth:`compile`; instances are cheap descriptors (expensive resources —
    scratch buffers, worker processes, shared-memory blocks — belong to the
    per-tree :class:`CompiledKernel`).
    """

    #: Registry key (short, stable; referenced from configs and profiles).
    key: str = ""
    #: Human-readable backend name.
    label: str = ""

    def capabilities(self) -> BackendCapabilities:
        """The backend's static limits (dtype/size) and traits."""
        return BackendCapabilities()

    def compile(
        self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None
    ) -> CompiledKernel:
        """Build the per-tree kernel (charging preprocessing to ``ctx``)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(key={self.key!r})"


# ----------------------------------------------------------------------
# Process-wide backend registry
# ----------------------------------------------------------------------

#: Key → zero-argument factory.  Factories keep registration side-effect
#: free: merely importing :mod:`repro.backends` must never spawn worker
#: processes or allocate scratch — that happens when a backend is first
#: *requested*.
_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(
    key: str, factory: Callable[[], KernelBackend], *, replace: bool = False
) -> None:
    """Register a kernel backend under ``key``.

    ``factory`` is a zero-argument callable returning the backend; it runs
    at most once (the instance is memoized).  Re-registering an existing key
    raises unless ``replace=True`` (tests use that to install fakes).
    """
    if not key:
        raise ServiceError("backend key must be non-empty")
    if key in _FACTORIES and not replace:
        raise ServiceError(f"kernel backend {key!r} is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


def get_kernel_backend(key: str) -> KernelBackend:
    """The registered backend for ``key`` (instantiated once, memoized)."""
    backend = _INSTANCES.get(key)
    if backend is None:
        factory = _FACTORIES.get(key)
        if factory is None:
            raise ServiceError(
                f"unknown kernel backend {key!r}; "
                f"registered: {available_backends()}"
            )
        backend = factory()
        _INSTANCES[key] = backend
    return backend


def available_backends() -> List[str]:
    """Keys of every registered kernel backend, sorted."""
    return sorted(_FACTORIES)
