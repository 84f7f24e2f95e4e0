"""One workload measured in this process: set-ups, timed passes, traced passes.

``run.py`` is the command line; this module is the measurement it drives.  A
run generates inputs and oracle answers from the seed, sets the system up
several times over (``setup_s`` is the median), then runs passes until the
time is up — ``gc.collect()`` before each, GC left on, every pass's outputs
checked against the oracle outside the timed region.  In a traced run every
untraced pass is followed by one under the tracer, so the machine's slow
drift lands on both alike and their ratio is the tracer's cost alone.

The yardstick (``yardstick.py``) is read after every set-up and every pass.
End-to-end times are host seconds scaled by the machine's gear at that moment
(reference reading ÷ mean of the readings before and after); per-layer times
stay raw, next to ``yardstick.speed``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import metrics
from layers.trace import Spans, Tracer
from layers.workloads import WORKLOADS, Inputs, Marks, PassResult
from layers.yardstick import REFERENCE_S, Yardstick

__all__ = ["MIN_PASSES", "SETUP_REPEATS", "measure"]

#: System set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Passes run however short the time budget is.
MIN_PASSES = 3

_clock = time.perf_counter
#: A pass's result, its spans when traced, and the machine's gear around it.
_Pass = Tuple[PassResult, Optional[Spans], float]


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    import_s: float,
    out_dir: Path,
) -> dict:
    """Run one workload; return its record (README: result files).

    ``end_to_end`` is filled by an untraced run, ``per_layer`` by a traced
    one, which also writes the last traced pass's spans under ``out_dir``.
    ``import_s`` (process start to imports done) is counted into ``setup_s``.
    """
    workload = {w.name: w for w in WORKLOADS}[name]
    yardstick = Yardstick()
    reading = yardstick()
    import_s *= REFERENCE_S / reading
    inputs = workload.make_inputs(seed, smoke)
    attempted = failed = 0
    reference: Dict[str, float] = {}
    problems: List[str] = []

    def verify(result: PassResult) -> None:
        nonlocal attempted, failed
        attempted += inputs.items
        failed += workload.check(inputs, result)
        result.outputs = None
        if not reference:
            reference.update(result.counts)
        elif result.counts != reference:
            problems.append(
                f"counters differ between passes: {result.counts} != {reference}"
            )

    def gear() -> float:
        """Reference ÷ yardstick around the work just done (1 = usual gear)."""
        nonlocal reading
        before, reading = reading, yardstick()
        return REFERENCE_S / (0.5 * (before + reading))

    # System set-up: construct the target, warm its caches, one warm-up pass.
    setups = []
    target = None
    gear()  # a fresh reading: generating the inputs took a while
    for _ in range(1 if traced else SETUP_REPEATS):
        # Drop the old target before building the next: two never coexist,
        # so ``peak_rss_mb`` is that of one target, not of the harness.
        target = None
        gc.collect()
        t0 = _clock()
        target = workload.make_target(inputs)
        result = workload.run_pass(inputs, target, Marks())
        setups.append((_clock() - t0) * gear())
        verify(result)

    tracer = Tracer()
    marks = Marks(tracer.mark("driver", "pass"), tracer.mark("driver", "block"))

    def one_pass(tracing: bool) -> _Pass:
        nonlocal target
        if workload.fresh_target:
            target = None
            target = workload.make_target(inputs)
        gc.collect()
        spans = None
        if tracing:
            tracer.install()
            try:
                result = workload.run_pass(inputs, target, marks)
            finally:
                tracer.uninstall()
            spans = tracer.take()
        else:
            result = workload.run_pass(inputs, target, Marks())
        around = gear()
        verify(result)
        return result, spans, around

    untraced: List[_Pass] = []
    traced_passes: List[_Pass] = []
    deadline = _clock() + seconds
    while len(untraced) < MIN_PASSES or _clock() < deadline:
        untraced.append(one_pass(False))
        if traced:
            traced_passes.append(one_pass(True))

    record = {
        "workload": name,
        "item": workload.item,
        "seed": seed,
        "seconds": seconds,
        "comparable": not smoke,
        "inputs_sha256": inputs.sha256,
        "items_per_pass": inputs.items,
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "end_to_end": {},
        "per_layer": {},
    }
    if traced:
        values = _per_layer(tracer, inputs, untraced, traced_passes, problems)
        values.update(reference)
        for m in metrics.per_layer_metrics():
            record["per_layer"][m.name] = {"value": values[m.name], "unit": m.unit}
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = traced_passes[-1][1]
        np.savez_compressed(
            out_dir / f"spans-{name}-seed{seed}.npz",
            names=np.array(tracer.names),
            name_id=spans.name_id,
            start=spans.start,
            end=spans.end,
            parent=spans.parent,
            self_s=spans.self_s,
            block=spans.enclosing(tracer.names.index("driver/block")),
            traced_pass=len(traced_passes) - 1,
        )
    else:
        pass_s = [r.seconds * g for r, _, g in untraced]
        rates = [inputs.items / s for s in pass_s]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (import_s + statistics.median(setups), metrics.spread(setups)),
            "items_per_s": (
                inputs.items / statistics.median(pass_s),
                metrics.spread(rates),
            ),
            "peak_rss_mb": (peak_rss_mb, None),
        }
        for m in metrics.END_TO_END:
            value, noise = values[m.name]
            cell = {"value": value, "unit": m.unit, "spread": noise}
            record["end_to_end"][m.name] = cell
        # The same throughput unscaled, and the gear it was measured in.
        raw_s = statistics.median(r.seconds for r, _, _ in untraced)
        record["raw_items_per_s"] = inputs.items / raw_s
        record["yardstick_speed"] = statistics.median(g for _, _, g in untraced)
    record.update(
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and not problems,
        problems=problems,
    )
    return record


def _per_layer(
    tracer: Tracer,
    inputs: Inputs,
    untraced: List[_Pass],
    traced_passes: List[_Pass],
    problems: List[str],
) -> Dict[str, float]:
    """The host-time and call-count per-layer metrics of a traced run."""
    layers = metrics.LAYERS
    group = np.array([layers.index(layer) for layer in tracer.layers])
    pass_id = tracer.names.index("driver/pass")
    self_rows, call_rows = [], []
    for _, spans, _ in traced_passes:
        # ``stats()`` after the pass still runs wrapped: outside the root span.
        inside = spans.enclosing(pass_id) >= 0
        self_s, calls = spans.totals(group, len(layers), keep=inside)
        self_rows.append(self_s)
        call_rows.append(calls)
    self_s = np.median(np.array(self_rows), axis=0)
    span_s = float(np.median(np.array(self_rows).sum(axis=1)))
    calls = call_rows[-1]
    if any((row != calls).any() for row in call_rows):
        problems.append("call counts differ between traced passes")

    values = {m.name: 0.0 for m in metrics.per_layer_metrics()}
    for i, layer in enumerate(layers):
        values[f"{layer}.self_s"] = float(self_s[i])
        values[f"{layer}.calls"] = int(calls[i])
        values[f"{layer}.share"] = float(self_s[i]) / span_s
    # Input generation happens before the passes: reported, not shared out.
    values["workloads.gen.self_s"] = inputs.gen_s
    values["workloads.gen.calls"] = 1
    values["pass.items"] = inputs.items

    kernel = [layers.index("lca.inlabel.query"), layers.index("backends")]
    values["kernel.calls"] = int(calls[kernel].sum())
    if values["kernel.calls"]:
        per_call = float(self_s[kernel].sum()) / values["kernel.calls"]
        values["kernel.us_per_call"] = per_call * 1e6
    for key in untraced[0][0].host:
        values[key] = statistics.median(r.host[key] for r, _, _ in untraced)
    block_s = np.concatenate([np.asarray(r.block_s) for r, _, _ in untraced])
    if block_s.size:
        p50, p99 = np.percentile(block_s, [50.0, 99.0])
        values["frontdoor.block_ms_p50"] = float(p50) * 1e3
        values["frontdoor.block_ms_p99"] = float(p99) * 1e3
        values["frontdoor.blocks"] = int(block_s.size)
    untraced_s = statistics.median(r.seconds for r, _, _ in untraced)
    traced_s = statistics.median(r.seconds for r, _, _ in traced_passes)
    values["raw.items_per_s"] = inputs.items / untraced_s
    values["yardstick.speed"] = statistics.median(g for _, _, g in untraced)
    if inputs.offered_qps:
        rate = values["raw.items_per_s"]
        values["serve.realtime_ratio"] = rate / inputs.offered_qps
    values["pass.untraced_s"] = untraced_s
    values["pass.traced_s"] = traced_s
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    values["trace.attributed"] = 1.0 - values["driver.share"]
    return values
