"""Tests for the elementwise kernel charge."""

import numpy as np
import pytest

from repro.primitives import elementwise


class TestElementwise:
    def test_returns_modeled_time(self, gpu_ctx):
        t = elementwise(10_000, ops_per_element=2.0, ctx=gpu_ctx)
        assert t > 0
        assert gpu_ctx.elapsed == pytest.approx(t)

    def test_zero_elements_still_valid(self, gpu_ctx):
        assert elementwise(0, ctx=gpu_ctx) >= 0
