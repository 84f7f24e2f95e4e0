"""The Inlabel artifacts a server builds over one tree's host index, in one table.

An artifact has ``n`` and ``query(xs, ys, *, ctx=None)``; it *answers*, and
the dispatcher's estimate is what a served batch costs (``ctx`` books the
artifact's own modeled charge for offline use).  :data:`ARTIFACT_BUILDERS`
maps each variant to the function that builds it over an
:class:`~repro.lca.InlabelIndex`, charging the build to ``ctx``; the index
registry and the calibration harness read it, nothing else resolves a
variant.  Every variant is a view over the index's one set of tables that
runs :func:`~repro.lca.inlabel._query_inlabel`: ``"parallel"`` and
``"sequential"`` are the two Inlabel flavours, and ``"smallbatch"`` is the
sequential flavour under its own build record.  A backend is a price, not a
second host kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from ..device import ExecutionContext
from .inlabel import (
    InlabelIndex,
    InlabelLCA,
    SequentialInlabelLCA,
    _view,
    charge_sequential_build,
)

__all__ = ["ARTIFACT_BUILDERS", "CompiledKernel"]


class CompiledKernel:
    """The artifact contract: ``n`` and ``query``, as the LCA classes have them."""

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        raise NotImplementedError

    def query(self, xs: np.ndarray, ys: np.ndarray, *,
              ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer one batch of LCA queries as an ``int64`` array.

        ``ctx``, when given, receives the kernel's modeled charge for the
        batch, exactly like the LCA classes' ``query``.
        """
        raise NotImplementedError


def _smallbatch(index: InlabelIndex, *, ctx: Optional[ExecutionContext] = None
                ) -> SequentialInlabelLCA:
    """A sequential view of ``index``, its build booked as the small-batch
    preprocess (the same single-core charge under its own record name)."""
    charge_sequential_build(index.structure.n, ctx, "smallbatch_inlabel_preprocess")
    return _view(SequentialInlabelLCA, index)


#: Artifact variant → the function that builds it over a tree's host index.
ARTIFACT_BUILDERS: Dict[str, Callable[..., Any]] = {
    "parallel": InlabelLCA.from_index,
    "sequential": SequentialInlabelLCA.from_index,
    "smallbatch": _smallbatch,
}
