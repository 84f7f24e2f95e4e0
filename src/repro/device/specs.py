"""Hardware specifications for the simulated execution devices.

The paper evaluates its algorithms on an NVIDIA GeForce GTX 980 (2048 CUDA
cores) against an Intel Xeon X5650 (6 physical cores, 12 hardware threads),
both as a single-core baseline and as an OpenMP multi-core baseline.  This
reproduction has no GPU, so instead of timing CUDA kernels we *model* them:
every bulk-parallel primitive reports the number of threads it would launch,
the arithmetic/compare/pointer operations it performs, and the bytes it moves,
and a :class:`DeviceSpec` converts that into a modeled execution time.

The constants below are calibrated only coarsely — to the published ballpark
of the GTX 980 (224 GB/s memory bandwidth, ~1.2 GHz, a few microseconds of
kernel-launch latency) and the Xeon X5650 (~32 GB/s, 2.67 GHz).  The paper's
conclusions depend on *ratios and scaling* (work vs. depth, launch count vs.
diameter), not on absolute milliseconds, and those ratios are what the model
preserves.  docs/architecture.md ("Preprocessing on the host") says how a
charge relates to what the host actually computes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a (simulated) execution device.

    Parameters
    ----------
    name:
        Human-readable device name used in reports.
    kind:
        Either ``"gpu"`` (bulk-synchronous kernel machine) or ``"cpu"``
        (sequential or small-scale multi-threaded machine).
    cores:
        Number of execution lanes.  For the GPU this is the CUDA core count;
        for the CPU the number of worker threads the model may use.
    clock_hz:
        Core clock frequency in hertz.
    ops_per_cycle:
        Sustained simple operations (integer add/compare/load-address
        arithmetic) per core per cycle for *regular* (coalesced,
        non-divergent) kernels.  This is intentionally well below 1.0 for the
        GPU because graph kernels are memory-system and scheduling bound, not
        FLOP bound.
    mem_bandwidth_bytes:
        Sustainable global-memory bandwidth in bytes per second.
    launch_overhead_s:
        Fixed cost of one kernel launch (GPU) or one parallel-region
        fork/join + barrier (multi-core CPU).  For a single-core CPU this is
        essentially a function-call cost and is set near zero.
    divergence_penalty:
        Multiplier applied to the compute time of kernels flagged as
        *divergent* (data-dependent branching / uncoalesced access), e.g. the
        per-thread tree walks of the naïve LCA algorithm or the CK marking
        phase.
    random_access_penalty:
        Multiplier applied to the memory time of kernels flagged as performing
        scattered (non-streaming) access, e.g. gather/scatter through
        permutations, pointer jumping.
    dependent_latency_s:
        Latency of one dependent scattered memory access (a cache/DRAM miss on
        the CPU, an unhidden global-memory round trip on the GPU).  This
        drives the *per-thread critical path* term of the cost model: a kernel
        with few threads — or a purely sequential loop — cannot hide this
        latency behind other work, which is what makes single queries slow on
        the GPU (paper Fig. 6) and pointer-chasing slow on a single CPU core.
    """

    name: str
    kind: str
    cores: int
    clock_hz: float
    ops_per_cycle: float
    mem_bandwidth_bytes: float
    launch_overhead_s: float
    divergence_penalty: float = 4.0
    random_access_penalty: float = 4.0
    dependent_latency_s: float = 1e-7

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "cpu"):
            raise ValueError(f"DeviceSpec.kind must be 'gpu' or 'cpu', got {self.kind!r}")
        if self.cores <= 0:
            raise ValueError("DeviceSpec.cores must be positive")
        if self.clock_hz <= 0 or self.mem_bandwidth_bytes <= 0:
            raise ValueError("clock_hz and mem_bandwidth_bytes must be positive")
        if self.ops_per_cycle <= 0:
            raise ValueError("ops_per_cycle must be positive")
        if self.launch_overhead_s < 0:
            raise ValueError("launch_overhead_s must be non-negative")
        if self.dependent_latency_s < 0:
            raise ValueError("dependent_latency_s must be non-negative")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def peak_ops_per_second(self) -> float:
        """Peak simple-operation throughput with all cores busy."""
        return self.cores * self.clock_hz * self.ops_per_cycle

    @property
    def scalar_seconds_per_op(self) -> float:
        """Time for one simple operation on a single lane (the serial rate)."""
        return 1.0 / (self.clock_hz * self.ops_per_cycle)


# ----------------------------------------------------------------------
# Presets modeled after the paper's experimental platform (Section 1.2)
# ----------------------------------------------------------------------

#: GTX-980-like bulk-synchronous GPU.  2048 CUDA cores at ~1.2 GHz; effective
#: simple-op throughput for irregular graph kernels is taken as ~0.25 op per
#: core per cycle (≈ 0.6 Top/s), memory bandwidth 224 GB/s, ~4 µs per kernel
#: launch, ~0.4 µs unhidden global-memory latency.
GTX980 = DeviceSpec(
    name="GTX 980 (simulated)",
    kind="gpu",
    cores=2048,
    clock_hz=1.216e9,
    ops_per_cycle=0.25,
    mem_bandwidth_bytes=224e9,
    launch_overhead_s=4e-6,
    divergence_penalty=3.0,
    random_access_penalty=2.5,
    dependent_latency_s=4e-7,
)

#: Single core of a Xeon-X5650-like CPU.  2.67 GHz, ~1.5 sustained simple ops
#: per cycle for pointer-heavy code, ~10 GB/s single-stream bandwidth, ~50 ns
#: per out-of-cache dependent access.
XEON_X5650_SINGLE = DeviceSpec(
    name="Xeon X5650 single-core (simulated)",
    kind="cpu",
    cores=1,
    clock_hz=2.67e9,
    ops_per_cycle=1.5,
    mem_bandwidth_bytes=10e9,
    launch_overhead_s=5e-8,
    divergence_penalty=1.5,
    random_access_penalty=4.0,
    dependent_latency_s=5e-8,
)

#: Multi-core Xeon X5650 (6 physical cores, 12 hardware threads).  OpenMP-style
#: parallel regions pay a fork/join + barrier cost of ~10 µs; scaling
#: efficiency is folded into ops_per_cycle (1.1 ≈ 0.73 × 1.5).
XEON_X5650_MULTI = DeviceSpec(
    name="Xeon X5650 multi-core (simulated)",
    kind="cpu",
    cores=6,
    clock_hz=2.67e9,
    ops_per_cycle=1.1,
    mem_bandwidth_bytes=25e9,
    launch_overhead_s=5e-6,
    divergence_penalty=1.5,
    random_access_penalty=2.0,
    dependent_latency_s=5e-8,
)
