"""The fused map kernel's charge: cost-model pricing without doing work."""

from __future__ import annotations

from typing import Optional

from ..device import ExecutionContext, ensure_context


def elementwise(n: int, ops_per_element: float = 1.0, bytes_per_element: float = 12.0,
                *, ctx: Optional[ExecutionContext] = None,
                name: str = "map", divergent: bool = False) -> float:
    """Charge a generic map-style kernel over ``n`` elements without doing work.

    Used by algorithms whose arithmetic is a handful of NumPy expressions that
    would be fused into a single kernel on a GPU: rather than pricing each
    NumPy call, the algorithm calls ``elementwise`` once with the fused cost.
    Returns the modeled time.
    """
    ctx = ensure_context(ctx)
    return ctx.kernel(
        name,
        threads=max(n, 1),
        ops=ops_per_element * n,
        bytes_read=bytes_per_element * n * 0.5,
        bytes_written=bytes_per_element * n * 0.5,
        launches=1,
        divergent=divergent,
    )
