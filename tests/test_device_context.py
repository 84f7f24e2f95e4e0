"""Tests for the execution context and the kernel cost model."""

import pytest

from repro.device import (
    GTX980,
    XEON_X5650_MULTI,
    XEON_X5650_SINGLE,
    ExecutionContext,
    NullContext,
    ensure_context,
    modeled_kernel_time,
)
from repro.errors import DeviceError


class TestModeledKernelTime:
    def test_launch_overhead_charged_per_launch(self):
        t1 = modeled_kernel_time(GTX980, threads=1, ops=1, launches=1)
        t2 = modeled_kernel_time(GTX980, threads=1, ops=1, launches=3)
        assert t2 - t1 == pytest.approx(2 * GTX980.launch_overhead_s)

    def test_more_work_costs_more(self):
        small = modeled_kernel_time(GTX980, threads=10**6, ops=1e6, bytes_read=8e6)
        large = modeled_kernel_time(GTX980, threads=10**7, ops=1e7, bytes_read=8e7)
        assert large > small

    def test_bandwidth_bound_kernel_scales_with_bytes(self):
        base = modeled_kernel_time(GTX980, threads=10**7, ops=1e7, bytes_read=1e9, launches=0)
        double = modeled_kernel_time(GTX980, threads=10**7, ops=1e7, bytes_read=2e9, launches=0)
        assert double == pytest.approx(2 * base)

    def test_divergence_penalty_applies_to_compute(self):
        regular = modeled_kernel_time(GTX980, threads=10**7, ops=1e12, launches=0)
        divergent = modeled_kernel_time(GTX980, threads=10**7, ops=1e12, launches=0,
                                        divergent=True)
        assert divergent == pytest.approx(GTX980.divergence_penalty * regular)

    def test_random_access_penalty_applies_to_memory(self):
        streaming = modeled_kernel_time(GTX980, threads=10**7, ops=1, bytes_read=1e10,
                                        launches=0)
        scattered = modeled_kernel_time(GTX980, threads=10**7, ops=1, bytes_read=1e10,
                                        launches=0, random_access=True)
        assert scattered > streaming

    def test_single_thread_scattered_work_is_latency_bound(self):
        # One thread chasing 1e6 pointers: latency-bound, far slower than the
        # same work spread over a million threads.
        sequential = modeled_kernel_time(XEON_X5650_SINGLE, threads=1, ops=1e6,
                                         bytes_read=8e6, random_access=True, launches=0)
        assert sequential >= 1e6 / 64 * 8 * XEON_X5650_SINGLE.dependent_latency_s

    def test_gpu_tiny_batch_is_slower_per_item_than_large_batch(self):
        # The Figure 6 effect: 1 query per launch vs 100k queries per launch.
        one = modeled_kernel_time(GTX980, threads=1, ops=40, bytes_read=112,
                                  random_access=True)
        bulk = modeled_kernel_time(GTX980, threads=100_000, ops=40 * 100_000,
                                   bytes_read=112 * 100_000, random_access=True)
        assert one > bulk / 100_000 * 10

    def test_negative_parameters_rejected(self):
        with pytest.raises(DeviceError):
            modeled_kernel_time(GTX980, threads=-1, ops=1)
        with pytest.raises(DeviceError):
            modeled_kernel_time(GTX980, threads=1, ops=-1)

    def test_multicore_faster_than_single_core_on_bulk_work(self):
        single = modeled_kernel_time(XEON_X5650_SINGLE, threads=10**6, ops=1e8,
                                     bytes_read=8e8, launches=1)
        multi = modeled_kernel_time(XEON_X5650_MULTI, threads=10**6, ops=1e8,
                                    bytes_read=8e8, launches=1)
        assert multi < single


class TestExecutionContext:
    def test_elapsed_accumulates(self, gpu_ctx):
        t1 = gpu_ctx.kernel("a", threads=1000, ops=1000)
        t2 = gpu_ctx.kernel("b", threads=1000, ops=1000)
        assert gpu_ctx.elapsed == pytest.approx(t1 + t2)

    def test_ops_defaults_to_threads(self, gpu_ctx):
        gpu_ctx.kernel("a", threads=123)
        assert gpu_ctx.total_ops == 123

    def test_totals_tracked(self, gpu_ctx):
        gpu_ctx.kernel("a", threads=10, ops=20, bytes_read=30, bytes_written=40, launches=2)
        assert gpu_ctx.total_ops == 20
        assert gpu_ctx.total_bytes == 70
        assert gpu_ctx.total_launches == 2

    def test_phases_capture_time(self, gpu_ctx):
        with gpu_ctx.phase("alpha"):
            gpu_ctx.kernel("a", threads=10)
        with gpu_ctx.phase("beta"):
            gpu_ctx.kernel("b", threads=10)
        breakdown = gpu_ctx.breakdown()
        assert set(breakdown) == {"alpha", "beta"}
        assert sum(breakdown.values()) == pytest.approx(gpu_ctx.elapsed)

    def test_nested_phases_do_not_double_count(self, gpu_ctx):
        with gpu_ctx.phase("outer"):
            gpu_ctx.kernel("a", threads=10)
            with gpu_ctx.phase("inner"):
                gpu_ctx.kernel("b", threads=10)
        breakdown = gpu_ctx.breakdown()
        assert sum(breakdown.values()) == pytest.approx(gpu_ctx.elapsed)
        assert breakdown["inner"] > 0
        assert breakdown["outer"] > 0

    def test_untagged_time_reported(self, gpu_ctx):
        gpu_ctx.kernel("a", threads=10)
        assert "(untagged)" in gpu_ctx.breakdown()

    def test_empty_phase_name_rejected(self, gpu_ctx):
        with pytest.raises(DeviceError):
            with gpu_ctx.phase(""):
                pass

    def test_trace_records_kernels(self, gpu_ctx):
        gpu_ctx.kernel("mykernel", threads=10)
        assert len(gpu_ctx.records) == 1
        assert gpu_ctx.records[0].name == "mykernel"

    def test_no_trace_keeps_no_records(self):
        ctx = ExecutionContext(GTX980, trace=False)
        ctx.kernel("a", threads=10)
        assert ctx.records == []
        assert ctx.elapsed > 0

    def test_reset_clears_everything(self, gpu_ctx):
        with gpu_ctx.phase("p"):
            gpu_ctx.kernel("a", threads=10)
        gpu_ctx.reset()
        assert gpu_ctx.elapsed == 0
        assert gpu_ctx.breakdown() == {}
        assert gpu_ctx.records == []

    def test_sequential_is_single_threaded_kernel(self, cpu_ctx):
        t = cpu_ctx.sequential("loop", ops=1000, bytes_touched=8000)
        assert t > 0
        assert cpu_ctx.total_launches == 1


class TestNullContext:
    def test_records_nothing(self):
        ctx = NullContext()
        assert ctx.kernel("a", threads=100) == 0.0
        assert ctx.sequential("b", ops=100) == 0.0
        assert ctx.elapsed == 0.0

    def test_ensure_context_passthrough(self, gpu_ctx):
        assert ensure_context(gpu_ctx) is gpu_ctx

    def test_ensure_context_none_gives_null(self):
        assert isinstance(ensure_context(None), NullContext)
