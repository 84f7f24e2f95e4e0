"""The existing vectorized NumPy execution paths as kernel backends.

Two backends, one per execution flavour of the Inlabel algorithm:

* ``"numpy"`` — the bulk-vectorized batch kernel
  (:class:`~repro.lca.InlabelLCA`; the paper's GPU algorithm, modeled on the
  GTX-980 spec);
* ``"numpy-seq"`` — the sequential single-core flavour
  (:class:`~repro.lca.SequentialInlabelLCA`, modeled on the single-core Xeon
  spec).

Both delegate compilation and execution to the legacy classes, so their
answers *and* their modeled charges are bit-identical to the pre-backend
serving stack — they are the continuity anchors the acceptance criterion
("no profile ⇒ bit-identical") rests on.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..device import ExecutionContext
from ..lca import InlabelLCA, SequentialInlabelLCA
from .base import BackendCapabilities, CompiledKernel, KernelBackend

__all__ = ["NumpyBackend", "NUMPY_BACKEND_KEY", "NUMPY_SEQ_BACKEND_KEY"]

NUMPY_BACKEND_KEY = "numpy"
NUMPY_SEQ_BACKEND_KEY = "numpy-seq"


class _NumpyCompiledKernel(CompiledKernel):
    """Compiled kernel delegating to a legacy Inlabel artifact."""

    def __init__(
        self, key: str, artifact: Union[InlabelLCA, SequentialInlabelLCA]
    ) -> None:
        self.backend_key = key
        self.artifact = artifact

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        return int(self.artifact.n)

    def _execute(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # ctx=None: the uncharged real computation; query() books the
        # modeled charge separately through _charge.
        return self.artifact.query(xs, ys)

    def _charge(self, ctx: ExecutionContext, batch_size: int) -> None:
        # Unreachable via query() below, which delegates whole to the
        # artifact so charges stay bit-identical; kept for the contract.
        raise AssertionError(
            "numpy kernels charge through the legacy artifact"
        )  # pragma: no cover

    def query(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        ctx: Optional[ExecutionContext] = None,
    ) -> np.ndarray:
        """Delegate straight to the legacy artifact (identical charges)."""
        return self.artifact.query(xs, ys, ctx=ctx)


class NumpyBackend(KernelBackend):
    """The vectorized NumPy path, in sequential or batch-parallel flavour."""

    def __init__(self, *, sequential: bool = False) -> None:
        self.sequential = bool(sequential)
        self.key = NUMPY_SEQ_BACKEND_KEY if sequential else NUMPY_BACKEND_KEY
        self.label = (
            "Sequential NumPy Inlabel" if sequential else "Vectorized NumPy Inlabel"
        )

    def capabilities(self) -> BackendCapabilities:
        """No size limits; vectorized batches, single host thread."""
        return BackendCapabilities(parallel=not self.sequential)

    def compile(
        self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None
    ) -> CompiledKernel:
        """Build the matching legacy artifact for this tree."""
        artifact: Union[InlabelLCA, SequentialInlabelLCA]
        if self.sequential:
            artifact = SequentialInlabelLCA(parents, ctx=ctx)
        else:
            artifact = InlabelLCA(parents, ctx=ctx)
        return _NumpyCompiledKernel(self.key, artifact)
