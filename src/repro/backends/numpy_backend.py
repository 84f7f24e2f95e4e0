"""The existing vectorized NumPy execution paths as kernel backends.

Two backends, one per execution flavour of the Inlabel algorithm:

* ``"numpy"`` — the bulk-vectorized batch kernel
  (:class:`~repro.lca.InlabelLCA`; the paper's GPU algorithm, modeled on the
  GTX-980 spec);
* ``"numpy-seq"`` — the sequential single-core flavour
  (:class:`~repro.lca.SequentialInlabelLCA`, modeled on the single-core Xeon
  spec).

``compile`` returns the LCA object itself, a view over the tree's shared
:class:`~repro.lca.InlabelIndex` (``from_index``) — it already has the
artifact shape (``n``, ``query(xs, ys, *, ctx=None)``) — so answers *and*
offline modeled charges are those of :mod:`repro.lca.inlabel`, nothing in
between.  The index registry builds its ``"parallel"`` / ``"sequential"``
variants the same way.
"""

from __future__ import annotations

from typing import Optional, Union

from ..device import ExecutionContext
from ..lca import InlabelIndex, InlabelLCA, SequentialInlabelLCA
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
        self, index: InlabelIndex, *, ctx: Optional[ExecutionContext] = None
    ) -> Union[InlabelLCA, SequentialInlabelLCA]:
        """The matching Inlabel flavour over ``index``, its build charged."""
        flavour = SequentialInlabelLCA if self.sequential else InlabelLCA
        return flavour.from_index(index, ctx=ctx)
