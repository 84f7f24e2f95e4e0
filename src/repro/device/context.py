"""Execution contexts: kernel-level cost accounting for simulated devices.

Every "GPU" algorithm in this library is written as a sequence of
bulk-synchronous array kernels.  The actual computation is carried out with
NumPy (so results are real and testable); in parallel, each kernel reports its
*shape* — how many logical threads it would launch, how many simple operations
it performs, how many bytes it reads and writes — to an
:class:`ExecutionContext`.  The context converts those into a modeled wall
time using the :class:`~repro.device.specs.DeviceSpec` cost model and keeps a
full trace so experiment runners can produce per-phase breakdowns such as the
paper's Figure 11.

The same mechanism models CPU baselines: a sequential algorithm simply reports
``threads=1`` kernels (the launch overhead of a single-core spec is
negligible), and the multi-core spec charges an OpenMP-style fork/join cost
per parallel region.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..errors import DeviceError
from .specs import DeviceSpec


@dataclass
class KernelRecord:
    """One recorded kernel launch (or sequential loop) with its modeled cost."""

    name: str
    phase: str
    threads: int
    ops: float
    bytes_read: float
    bytes_written: float
    launches: int
    divergent: bool
    random_access: bool
    time_s: float


def modeled_kernel_time(
    spec: DeviceSpec,
    *,
    threads: int,
    ops: float,
    bytes_read: float = 0.0,
    bytes_written: float = 0.0,
    launches: int = 1,
    divergent: bool = False,
    random_access: bool = False,
) -> float:
    """Model the execution time of one kernel on ``spec``.

    The model is a roofline estimate with two extra terms that matter for
    irregular graph kernels:

    ``time = launches * launch_overhead + max(compute, memory, critical_path)``

    * ``compute = ops / peak_ops_per_second`` — throughput bound, scaled by
      the divergence penalty for branchy kernels;
    * ``memory = bytes / bandwidth`` — bandwidth bound, scaled by the
      random-access penalty for scattered kernels;
    * ``critical_path`` — the serial work of one thread: ``ops / threads``
      scalar operations plus, for scattered kernels, one dependent-latency
      charge per cache line each thread touches.  With millions of threads
      this term vanishes (latency is hidden); with a handful of threads — a
      single online query, the tail of a pointer-jumping round, a sequential
      CPU loop — it dominates, which is exactly the behaviour the paper's
      batch-size experiment (Fig. 6) and CPU baselines exhibit.
    """
    if launches < 0 or threads < 0 or ops < 0 or bytes_read < 0 or bytes_written < 0:
        raise DeviceError("kernel cost parameters must be non-negative")
    compute = ops / spec.peak_ops_per_second
    if divergent:
        compute *= spec.divergence_penalty
    total_bytes = bytes_read + bytes_written
    memory = total_bytes / spec.mem_bandwidth_bytes
    if random_access:
        memory *= spec.random_access_penalty
    lanes = max(threads, 1)
    critical_path = (ops / lanes) * spec.scalar_seconds_per_op
    if random_access:
        cache_lines_per_lane = (total_bytes / 64.0) / lanes
        critical_path += cache_lines_per_lane * spec.dependent_latency_s
    busy = max(compute, memory, critical_path)
    return launches * spec.launch_overhead_s + busy


class ExecutionContext:
    """Accumulates the modeled cost of an algorithm run on one device.

    Parameters
    ----------
    spec:
        The device to model.
    trace:
        When true, every kernel record is retained (needed for detailed
        breakdowns); when false only per-phase totals are kept, which is much
        lighter for large parameter sweeps.

    Usage
    -----
    >>> from repro.device import GTX980, ExecutionContext
    >>> ctx = ExecutionContext(GTX980)
    >>> with ctx.phase("preprocessing"):
    ...     ctx.kernel("scan", threads=1000, ops=2000, bytes_read=4000, bytes_written=4000)
    ...
    >>> ctx.elapsed > 0
    True
    """

    def __init__(self, spec: DeviceSpec, *, trace: bool = False) -> None:
        self.spec = spec
        self.trace = trace
        self.records: List[KernelRecord] = []
        self._phase_stack: List[str] = []
        self._phase_times: Dict[str, float] = {}
        self._phase_order: List[str] = []
        self._total_time: float = 0.0
        self._total_ops: float = 0.0
        self._total_bytes: float = 0.0
        self._total_launches: int = 0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        """Name of the innermost active phase (``""`` when outside any phase)."""
        return self._phase_stack[-1] if self._phase_stack else ""

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager tagging all enclosed kernels with phase ``name``.

        Phases may nest; kernels are attributed to the innermost phase only,
        so nested phase times never double count.
        """
        if not name:
            raise DeviceError("phase name must be non-empty")
        self._phase_stack.append(name)
        if name not in self._phase_times:
            self._phase_times[name] = 0.0
            self._phase_order.append(name)
        try:
            yield
        finally:
            popped = self._phase_stack.pop()
            if popped != name:  # pragma: no cover - defensive
                raise DeviceError("phase stack corrupted")

    # ------------------------------------------------------------------
    # Kernel recording
    # ------------------------------------------------------------------
    def kernel(
        self,
        name: str,
        *,
        threads: int,
        ops: Optional[float] = None,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        launches: int = 1,
        divergent: bool = False,
        random_access: bool = False,
    ) -> float:
        """Record one kernel launch and return its modeled time in seconds.

        ``ops`` defaults to ``threads`` (one simple operation per thread),
        which is the right default for map-style kernels.
        """
        if ops is None:
            ops = float(threads)
        time_s = modeled_kernel_time(
            self.spec,
            threads=threads,
            ops=ops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            launches=launches,
            divergent=divergent,
            random_access=random_access,
        )
        phase = self.current_phase
        self._total_time += time_s
        self._total_ops += ops
        self._total_bytes += bytes_read + bytes_written
        self._total_launches += launches
        if phase:
            self._phase_times[phase] += time_s
        if self.trace:
            self.records.append(
                KernelRecord(
                    name=name,
                    phase=phase,
                    threads=threads,
                    ops=ops,
                    bytes_read=bytes_read,
                    bytes_written=bytes_written,
                    launches=launches,
                    divergent=divergent,
                    random_access=random_access,
                    time_s=time_s,
                )
            )
        return time_s

    def sequential(self, name: str, *, ops: float, bytes_touched: float = 0.0,
                   random_access: bool = False) -> float:
        """Record a purely sequential piece of work (single thread).

        Convenience wrapper used by the CPU baselines; equivalent to a
        one-thread, one-launch :meth:`kernel` call.
        """
        return self.kernel(
            name,
            threads=1,
            ops=ops,
            bytes_read=bytes_touched,
            bytes_written=0.0,
            launches=1,
            divergent=False,
            random_access=random_access,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Total modeled time in seconds accumulated so far."""
        return self._total_time

    @property
    def total_ops(self) -> float:
        """Total simple operations recorded so far."""
        return self._total_ops

    @property
    def total_bytes(self) -> float:
        """Total bytes moved recorded so far."""
        return self._total_bytes

    @property
    def total_launches(self) -> int:
        """Total number of kernel launches / parallel regions recorded."""
        return self._total_launches

    def breakdown(self) -> Dict[str, float]:
        """Per-phase modeled times, in first-use order.

        Time recorded outside any phase is reported under ``"(untagged)"``
        only when nonzero.
        """
        out: Dict[str, float] = {}
        for name in self._phase_order:
            out[name] = self._phase_times[name]
        untagged = self._total_time - sum(self._phase_times.values())
        if untagged > 1e-15:
            out["(untagged)"] = untagged
        return out

    def reset(self) -> None:
        """Discard all accumulated cost and trace information."""
        self.records.clear()
        self._phase_stack.clear()
        self._phase_times.clear()
        self._phase_order.clear()
        self._total_time = 0.0
        self._total_ops = 0.0
        self._total_bytes = 0.0
        self._total_launches = 0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ExecutionContext(device={self.spec.name!r}, elapsed={self.elapsed:.6f}s, "
            f"launches={self.total_launches})"
        )


class NullContext(ExecutionContext):
    """An :class:`ExecutionContext` that records nothing.

    Handy default so library functions can always call ``ctx.kernel(...)``
    without branching on ``ctx is None``; the accounting overhead is a cheap
    constant either way, but ``NullContext`` guarantees zero memory growth.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None) -> None:
        from .specs import GTX980

        super().__init__(spec or GTX980, trace=False)

    def kernel(self, name: str, **kwargs) -> float:  # type: ignore[override]
        return 0.0

    def sequential(self, name: str, **kwargs) -> float:  # type: ignore[override]
        return 0.0


def ensure_context(ctx: Optional[ExecutionContext], spec: Optional[DeviceSpec] = None
                   ) -> ExecutionContext:
    """Return ``ctx`` unchanged, or a fresh :class:`NullContext` when ``None``."""
    if ctx is None:
        return NullContext(spec)
    return ctx
