"""The kernel-backend contract: ``compile`` a tree, ``query`` the kernel.

The serving stack's :class:`~repro.service.dispatch.CostModelDispatcher`
chooses *which device* should answer a batch; this module defines the seam
behind which the devices are real:

* a :class:`KernelBackend` turns one tree's host Inlabel index
  (:class:`~repro.lca.InlabelIndex`, built once per dataset) into an LCA
  artifact over its tables — the analogue of compiling a CUDA kernel for one
  problem instance — and books its own modeled build charge;
* an artifact is anything with ``n`` and ``query(xs, ys, *, ctx=None)``:
  :class:`CompiledKernel` spells that out for backends that write their own
  kernel, and the LCA classes (:class:`~repro.lca.InlabelLCA`,
  :class:`~repro.lca.SequentialInlabelLCA`) already have that shape, so the
  index registry caches either kind the same way.

Kernels *answer*; they do not price.  What a served batch costs is the
dispatcher's estimate for ``(backend, batch size)`` and nothing else.  The
optional ``ctx`` of ``query`` books the artifact's own modeled charge for
offline use (the paper's figures, device tracing); ``tests/
test_service_dispatch.py`` holds it equal to the dispatcher's price.

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

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..device import ExecutionContext
from ..errors import ServiceError
from ..lca import InlabelIndex

__all__ = [
    "CompiledKernel",
    "KernelBackend",
    "register_backend",
    "get_kernel_backend",
    "available_backends",
]


class CompiledKernel:
    """A kernel compiled for one tree, ready to answer query batches."""

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        raise NotImplementedError

    def query(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        ctx: Optional[ExecutionContext] = None,
    ) -> np.ndarray:
        """Answer one batch of LCA queries as an ``int64`` array.

        ``ctx``, when given, receives the kernel's modeled charge for the
        batch, exactly like the LCA classes' ``query``.
        """
        raise NotImplementedError


class KernelBackend:
    """One real execution backend: a key, a label and a compile step.

    Subclasses set :attr:`key` / :attr:`label` and implement
    :meth:`compile`; instances are cheap descriptors (scratch buffers and
    tables belong to the per-tree artifact).
    """

    #: Registry key (short, stable; referenced from configs and profiles).
    key: str = ""
    #: Human-readable backend name.
    label: str = ""

    def compile(
        self, index: InlabelIndex, *, ctx: Optional[ExecutionContext] = None
    ) -> Any:
        """The per-tree artifact: a view over ``index``'s tables, its modeled
        build charged to ``ctx``.

        The result has ``n`` and ``query(xs, ys, *, ctx=None)`` — a
        :class:`CompiledKernel` or one of the LCA classes.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}(key={self.key!r})"


# ----------------------------------------------------------------------
# Process-wide backend registry
# ----------------------------------------------------------------------

#: Key → zero-argument factory.  Factories keep registration side-effect
#: free: merely importing :mod:`repro.backends` allocates no scratch — that
#: happens when a backend is first *requested*.
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
