"""The existing vectorized NumPy execution paths as kernel backends.

Two backends, one per execution flavour of the Inlabel algorithm:

* ``"numpy"`` — the bulk-vectorized batch kernel
  (:class:`~repro.lca.InlabelLCA`; the paper's GPU algorithm, modeled on the
  GTX-980 spec);
* ``"numpy-seq"`` — the sequential single-core flavour
  (:class:`~repro.lca.SequentialInlabelLCA`, modeled on the single-core Xeon
  spec).

``compile`` returns the LCA object itself — it already has the artifact
shape (``n``, ``query(xs, ys, *, ctx=None)``) — so answers *and* offline
modeled charges are those of :mod:`repro.lca.inlabel`, nothing in between.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..device import ExecutionContext
from ..lca import InlabelLCA, SequentialInlabelLCA
from .base import KernelBackend

__all__ = ["NumpyBackend", "NUMPY_BACKEND_KEY", "NUMPY_SEQ_BACKEND_KEY"]

NUMPY_BACKEND_KEY = "numpy"
NUMPY_SEQ_BACKEND_KEY = "numpy-seq"


class NumpyBackend(KernelBackend):
    """The vectorized NumPy path, in sequential or batch-parallel flavour."""

    def __init__(self, *, sequential: bool = False) -> None:
        self.sequential = bool(sequential)
        self.key = NUMPY_SEQ_BACKEND_KEY if sequential else NUMPY_BACKEND_KEY
        self.label = (
            "Sequential NumPy Inlabel" if sequential else "Vectorized NumPy Inlabel"
        )

    def compile(
        self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None
    ) -> Union[InlabelLCA, SequentialInlabelLCA]:
        """Build the matching Inlabel flavour for this tree."""
        if self.sequential:
            return SequentialInlabelLCA(parents, ctx=ctx)
        return InlabelLCA(parents, ctx=ctx)
