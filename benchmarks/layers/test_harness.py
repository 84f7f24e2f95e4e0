"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run with ``python -m pytest benchmarks/layers -q -p no:cacheprovider``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from layers import metrics, run
from layers.trace import TARGETS, Tracer, build_spans
from layers.yardstick import REFERENCE_S, Yardstick

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Advances by one second per reading, so spans have exact durations."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _self_by_name(tracer: Tracer) -> dict:
    spans = tracer.take()
    out: dict = {}
    for name_id, self_s in zip(spans.name_id.tolist(), spans.self_s.tolist()):
        name = tracer.names[name_id]
        out[name] = out.get(name, 0.0) + self_s
    return out


def _reference_spans(ids, times):
    """Plain stack walk: (name, start, end, parent, self) per span, in start order."""
    spans, stack = [], []
    for i, (ident, t) in enumerate(zip(ids, times)):
        if i and stack:
            spans[stack[-1]][4] += t - times[i - 1]
        if ident >= 0:
            spans.append([ident, t, None, stack[-1] if stack else -1, 0.0])
            stack.append(len(spans) - 1)
        else:
            spans[stack.pop()][2] = t
    return spans


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda: None, "L", "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "L", "outer")
    outer()
    # outer: enter 0, exit 5; inner: 1-2 and 3-4.
    spans = tracer.take()
    assert spans.start.tolist() == [0.0, 1.0, 3.0]
    assert spans.end.tolist() == [5.0, 2.0, 4.0]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert spans.self_s.tolist() == [3.0, 1.0, 1.0]
    assert spans.self_s.sum() == spans.end[0] - spans.start[0]


def test_self_time_of_recursive_spans():
    tracer = Tracer(clock=FakeClock())

    def countdown(n):
        return n if n == 0 else traced(n - 1)

    traced = tracer.wrap(countdown, "L", "countdown")
    traced(3)
    spans = tracer.take()
    assert spans.parent.tolist() == [-1, 0, 1, 2]
    # Each level owns the second before and after its child; the leaf one.
    assert spans.self_s.tolist() == [2.0, 2.0, 2.0, 1.0]
    assert (spans.end - spans.start).tolist() == [7.0, 5.0, 3.0, 1.0]


def test_raising_span_is_closed_and_the_exception_propagates():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("boom")

    inner = tracer.wrap(boom, "L", "boom")

    def catcher():
        try:
            inner()
        except KeyError:
            return "caught"

    outer = tracer.wrap(catcher, "L", "catcher")
    assert outer() == "caught"
    with pytest.raises(KeyError):
        inner()
    assert _self_by_name(tracer) == {"L/catcher": 2.0, "L/boom": 2.0}


def test_marks_and_enclosing_block_ids():
    tracer = Tracer(clock=FakeClock())
    block = tracer.mark("driver", "block")
    work = tracer.wrap(lambda: None, "L", "work")
    work()
    for _ in range(2):
        with block:
            work()
            work()
    spans = tracer.take()
    ordinal = spans.enclosing(tracer.names.index("driver/block"))
    assert ordinal.tolist() == [-1, 0, 0, 0, 1, 1, 1]


def test_build_spans_matches_a_stack_walk_on_random_nesting():
    rng = np.random.default_rng(7)
    ids, depth = [], 0
    while len(ids) < 4000 or depth:
        if depth and (len(ids) >= 4000 or rng.random() < 0.5):
            ids.append(-1)
            depth -= 1
        else:
            ids.append(int(rng.integers(0, 5)))
            depth += 1
    times = np.cumsum(rng.random(len(ids)))
    spans = build_spans(np.array(ids), times)
    expected = _reference_spans(ids, times.tolist())
    assert spans.name_id.tolist() == [s[0] for s in expected]
    assert spans.start.tolist() == [s[1] for s in expected]
    assert spans.end.tolist() == [s[2] for s in expected]
    assert spans.parent.tolist() == [s[3] for s in expected]
    np.testing.assert_allclose(spans.self_s, [s[4] for s in expected], rtol=1e-9)


def test_unbalanced_events_are_rejected():
    with pytest.raises(ValueError):
        build_spans(np.array([0, 0, -1]), np.array([0.0, 1.0, 2.0]))
    assert len(build_spans(np.array([], dtype=np.int64), np.array([]))) == 0


def _repro_attributes() -> dict:
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not f"{mod_name}.".startswith("repro."):
            continue
        for attr, value in vars(module).items():
            out[mod_name, attr] = value
            if isinstance(value, type):
                for member, fn in vars(value).items():
                    out[mod_name, attr, member] = fn
    return out


def test_install_then_uninstall_restores_every_repro_attribute():
    run._bootstrap()
    import repro  # noqa: F401

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()  # first round imports every target module
    before = _repro_attributes()
    tracer.install()
    during = _repro_attributes()
    changed = [key for key, value in before.items() if during[key] is not value]
    tracer.uninstall()
    after = _repro_attributes()
    assert len(changed) >= sum(len(t) for t in TARGETS.values())
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # Every layer the tracer can name is one the metric registry reports.
    assert set(TARGETS) <= set(metrics.LAYERS)
    assert set(tracer.layers) == set(TARGETS)


def test_spread_and_worse_by():
    assert metrics.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert metrics.spread([1.0]) is None
    values = [9.0, 10.0, 11.0, 12.0, 8.0, 10.0, 10.5, 9.5, 10.0, 11.5]
    assert metrics.spread(values) == pytest.approx(0.175)
    lower = metrics.Metric("t", "s", "lower", 0.1)
    higher = metrics.Metric("r", "1/s", "higher", 0.1)
    assert metrics.worse_by(lower, 1.0, 1.2) == pytest.approx(0.2)
    assert metrics.worse_by(lower, 1.0, 0.8) == pytest.approx(-0.2)
    assert metrics.worse_by(higher, 100.0, 80.0) == pytest.approx(0.2)
    assert metrics.worse_by(higher, 0.0, 0.0) == 0.0


def test_yardstick_is_the_same_work_in_every_run():
    first, second = Yardstick(), Yardstick()
    assert first._small_calls() == second._small_calls()
    assert first._large_arrays() == second._large_arrays()
    # Within a factor of a few of the reference box, whatever runs this.
    assert REFERENCE_S / 20 < min(first() for _ in range(3)) < REFERENCE_S * 20


def test_benchmark_json_mirrors_the_registry():
    run._bootstrap()
    from layers.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert spec["command"] == ["python3", "benchmarks/layers/run.py"]
    assert spec["paths"] == ["benchmarks/layers"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    per_layer = metrics.per_layer_metrics()
    assert len(per_layer) <= 128
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer
    ]
    names = [m.name for m in metrics.END_TO_END + per_layer]
    assert len(set(names)) == len(names)
    assert "setup_s" in names and max(m.bound for m in metrics.END_TO_END) <= 0.25


def _result(workload: dict) -> dict:
    return {"schema": 1, "comparable": True, "workloads": {"w": workload}}


def _workload(rate: float, spread: float, batches: int) -> dict:
    return {
        "inputs_sha256": "abc",
        "failed": 0,
        "end_to_end": {
            "items_per_s": {"value": rate, "unit": "items/s", "spread": spread}
        },
        "per_layer": {"scheduler.batches": {"value": batches, "unit": "count"}},
    }


def test_agree_verdicts(tmp_path, capsys):
    def verdict(a: dict, b: dict) -> tuple:
        for name, payload in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(_result(payload)))
        code = run.main(
            ["--agree", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        return code, capsys.readouterr().out

    code, out = verdict(_workload(100.0, 0.02, 7), _workload(97.0, 0.03, 7))
    assert code == 0 and "agree (+0.030" in out
    code, out = verdict(_workload(100.0, 0.02, 7), _workload(60.0, 0.03, 7))
    assert code == 1 and "WORSE" in out
    # Noisier than the bound: neither agreement nor regression.
    code, out = verdict(_workload(100.0, 0.02, 7), _workload(60.0, 0.9, 7))
    assert code == 0 and "unresolved" in out
    code, out = verdict(_workload(100.0, 0.02, 7), _workload(100.0, 0.02, 8))
    assert code == 1 and "DIFFERS (exact)" in out


def test_smoke_run_of_all_eight_workloads(tmp_path):
    started = time.perf_counter()
    assert run.main(["--workload", "all", "--smoke", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - started < 20.0
    result = json.loads((tmp_path / "result-seed0-smoke.json").read_text())
    assert result["comparable"] is False
    assert {"git_sha", "python", "numpy", "platform", "nproc", "seed"} <= set(
        result["manifest"]
    )
    assert len(result["workloads"]) == 8
    for name, record in result["workloads"].items():
        assert record["correct"] and record["failed"] == 0, name
        assert record["comparable"] is False
        assert len(record["inputs_sha256"]) == 64
        assert set(record["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert record["raw_items_per_s"] > 0 and record["yardstick_speed"] > 0
        assert record["per_layer"]["trace.attributed"]["value"] > 0.5
        assert (tmp_path / f"spans-{name}-seed0.npz").exists()
