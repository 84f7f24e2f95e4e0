"""Tests for the device specifications and presets."""

import dataclasses

import pytest

from repro.device import GTX980, XEON_X5650_MULTI, XEON_X5650_SINGLE, DeviceSpec


class TestPresets:
    def test_gpu_preset_is_gpu(self):
        assert GTX980.kind == "gpu"
        assert GTX980.cores == 2048

    def test_cpu_presets_are_cpu(self):
        assert XEON_X5650_SINGLE.kind == "cpu"
        assert XEON_X5650_SINGLE.cores == 1
        assert XEON_X5650_MULTI.kind == "cpu"
        assert XEON_X5650_MULTI.cores == 6

    def test_gpu_has_more_throughput_than_single_core(self):
        assert GTX980.peak_ops_per_second > 10 * XEON_X5650_SINGLE.peak_ops_per_second

    def test_multi_core_faster_than_single_core(self):
        assert XEON_X5650_MULTI.peak_ops_per_second > XEON_X5650_SINGLE.peak_ops_per_second

    def test_gpu_launch_overhead_dominates_cpu_call_overhead(self):
        assert GTX980.launch_overhead_s > XEON_X5650_SINGLE.launch_overhead_s

    def test_scalar_seconds_per_op_positive(self):
        for spec in (GTX980, XEON_X5650_SINGLE, XEON_X5650_MULTI):
            assert spec.scalar_seconds_per_op > 0

    def test_presets_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GTX980.cores = 1  # type: ignore[misc]


class TestValidation:
    def _base_kwargs(self):
        return dict(name="x", kind="cpu", cores=1, clock_hz=1e9, ops_per_cycle=1.0,
                    mem_bandwidth_bytes=1e9, launch_overhead_s=0.0)

    def test_bad_kind_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["kind"] = "fpga"
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("cores", 0),
        ("clock_hz", 0.0),
        ("mem_bandwidth_bytes", -1.0),
        ("ops_per_cycle", 0.0),
        ("launch_overhead_s", -1e-6),
        ("dependent_latency_s", -1e-9),
    ])
    def test_nonpositive_parameters_rejected(self, field, value):
        kwargs = self._base_kwargs()
        kwargs[field] = value
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)
