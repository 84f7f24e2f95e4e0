"""The artifact contract, :class:`~repro.lca.artifacts.CompiledKernel`.

No artifact subclasses it: every variant is a view of the LCA classes, which
already have its shape (``n`` and ``query(xs, ys, *, ctx=None)``).  It lives
in :mod:`repro.lca.artifacts`, next to the one table of artifact builders, so
that a service builds its artifacts without importing this package.
"""

from ..lca.artifacts import CompiledKernel

__all__ = ["CompiledKernel"]
