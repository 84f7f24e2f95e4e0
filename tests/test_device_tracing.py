"""Tests for breakdown reporting and mixed-backend kernel traces."""

import pytest

from repro.device import (
    GTX980,
    ExecutionContext,
    PhaseBreakdown,
    format_breakdown_table,
    speedup,
)


def _ctx_with_phases():
    ctx = ExecutionContext(GTX980, trace=True)
    with ctx.phase("build"):
        ctx.kernel("scan", threads=1000, ops=2000, bytes_read=8000, bytes_written=8000)
        ctx.kernel("scan", threads=1000, ops=2000, bytes_read=8000, bytes_written=8000)
    with ctx.phase("query"):
        ctx.kernel("lookup", threads=500, ops=500)
    return ctx


class TestPhaseBreakdown:
    def test_from_context_captures_phases(self):
        ctx = _ctx_with_phases()
        bd = PhaseBreakdown("run1", tuple(ctx.breakdown().items()))
        assert bd.label == "run1"
        assert list(bd.as_dict()) == ["build", "query"]
        assert bd.total == pytest.approx(ctx.elapsed)

    def test_compare_totals(self):
        a = PhaseBreakdown("a", (("build", 1.0), ("query", 0.5)))
        b = PhaseBreakdown("b", (("query", 0.25),))
        assert {bd.label: bd.total for bd in (a, b)} == {"a": 1.5, "b": 0.25}
        assert PhaseBreakdown("empty", ()).total == 0


class TestFormatBreakdownTable:
    def test_contains_all_phases_and_runs(self):
        ctx = _ctx_with_phases()
        bd = PhaseBreakdown("algorithm-a", tuple(ctx.breakdown().items()))
        text = format_breakdown_table([bd])
        assert "algorithm-a" in text
        assert "build" in text
        assert "query" in text
        assert "total" in text

    def test_missing_phase_shown_as_dash(self):
        a = PhaseBreakdown("a", (("p1", 1e-3),))
        b = PhaseBreakdown("b", (("p2", 2e-3),))
        text = format_breakdown_table([a, b])
        assert "-" in text

    def test_unit_conversion(self):
        a = PhaseBreakdown("a", (("p1", 1.0),))
        ms = format_breakdown_table([a], time_unit="ms")
        s = format_breakdown_table([a], time_unit="s")
        assert "1000.00" in ms
        assert "1.00" in s

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            format_breakdown_table([], time_unit="minutes")


class TestSpeedup:
    def test_speedup_ratio(self):
        assert speedup(2.0, 0.5) == pytest.approx(4.0)

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestHeterogeneousBackendTrace:
    """Kernel records from different real backends interleave in one trace."""

    def _mixed_trace_ctx(self):
        import numpy as np

        from repro.graphs.generators import random_attachment_tree
        from repro.lca import build_inlabel_index
        from repro.lca.artifacts import ARTIFACT_BUILDERS

        parents = random_attachment_tree(96, seed=5)
        xs = np.array([3, 17, 40], dtype=np.int64)
        ys = np.array([90, 2, 55], dtype=np.int64)
        ctx = ExecutionContext(GTX980, trace=True)
        index = build_inlabel_index(parents)
        for variant in ("parallel", "smallbatch"):
            kernel = ARTIFACT_BUILDERS[variant](index, ctx=ctx)
            kernel.query(xs, ys, ctx=ctx)
        return ctx

    def test_records_from_both_backends_interleave(self):
        ctx = self._mixed_trace_ctx()
        names = [rec.name for rec in ctx.records]
        parallel_q = names.index("inlabel_query_batch")
        small_pre = names.index("smallbatch_inlabel_preprocess")
        small_q = names.index("smallbatch_inlabel_query_batch")
        # One shared timeline: the parallel query ran before the smallbatch
        # backend even compiled, and every record carries a real cost.
        assert parallel_q < small_pre < small_q
        assert all(rec.time_s > 0.0 for rec in ctx.records)

    def test_phase_breakdown_spans_both_backends(self):
        ctx = self._mixed_trace_ctx()
        breakdown = ctx.breakdown()
        assert set(breakdown) == {"preprocessing", "queries"}
        assert sum(breakdown.values()) == pytest.approx(ctx.elapsed)
