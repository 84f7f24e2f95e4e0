"""Simulated execution devices and cost accounting.

This subpackage is the hardware substitution layer (layer 5 of
docs/architecture.md, "The layers"): it stands in for the paper's GTX 980 GPU
and Xeon X5650 CPU.  Algorithms do
their real computation with NumPy and, alongside it, report the shape of every
bulk-parallel kernel to an :class:`ExecutionContext`, which prices it with an
analytic roofline-plus-launch-latency model.
"""

from .context import (
    ExecutionContext,
    KernelRecord,
    NullContext,
    ensure_context,
    modeled_kernel_time,
)
from .specs import (
    GTX980,
    XEON_X5650_MULTI,
    XEON_X5650_SINGLE,
    DeviceSpec,
)
from .tracing import PhaseBreakdown, format_breakdown_table

__all__ = [
    "DeviceSpec",
    "GTX980",
    "XEON_X5650_SINGLE",
    "XEON_X5650_MULTI",
    "ExecutionContext",
    "KernelRecord",
    "NullContext",
    "ensure_context",
    "modeled_kernel_time",
    "PhaseBreakdown",
    "format_breakdown_table",
]
