#!/usr/bin/env python
"""Chaos suite: availability and tail latency under injected faults.

Replays every ``chaos-*`` scenario (replica kill, kill-under-flash-crowd,
rolling restart, elastic scale-out) on a fault-injected bounded cluster,
plus a hedged slowdown variant and a fault-free control of the same
traffic.  All numbers are modeled times on the simulated clock driven by
seeded generators, so rows are bit-deterministic and make a tight CI
regression baseline.

Four properties are verified (and fail the run when ``--check`` is set):

* **zero lost queries** — every admitted query is answered on every row,
  faults or not (the retry/failover path never drops work);
* **bit-identical answers** — every admitted answer matches the
  binary-lifting oracle, so failover re-execution is invisible to clients;
* **availability** — answered/admitted stays >= 99.9% outside shed
  accounting (sheds are typed rejections, not failures);
* **the kill is contained and hedging pays** — the replica-kill run
  retries work and its outage-window p99 stays within 2x the fault-free
  control's same-phase p99 (eviction re-dispatches stranded work into the
  survivor's next flush, so a kill costs at most about one extra flush
  deadline), while the straggling-replica run must win hedges and the
  hedged outage p99 must beat the unhedged one outright.

Outputs:

* ``BENCH_chaos.json`` (repo root) — machine-readable result, compared
  against the committed baseline by CI's bench-regression gate
  (``headline.availability`` floor, ``headline.kill_p99_ms`` ceiling);
* ``results/chaos.txt`` — the rendered chaos table.

Run with:  python benchmarks/bench_chaos.py
Options:   --replicas N  --max-pending N  --check
Scale:     REPRO_BENCH_SCALE scales scenario durations (not rates).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.service import ClusterConfig, ClusterService, FaultEvent
from repro.workloads import (
    CHAOS_SCENARIOS,
    ChaosScenario,
    make_chaos_scenario,
    replay,
    replay_chaos,
)

from bench_util import BENCH_SCALE, RESULTS_DIR

JSON_PATH = REPO_ROOT / "BENCH_chaos.json"

#: One front-door admission tick (same constant as the scenario matrix).
ADMISSION_WINDOW_S = 5e-3

#: The phase whose p99 is the kill-window tail in the replica-kill runs.
OUTAGE_PHASE = 1

#: Batching knobs for every run: a 5ms flush deadline keeps enough work
#: pending that a kill visibly strands queries (with the 1ms default, the
#: stranded set is too small a fraction of the outage phase to reach p99).
BATCHING = {"max_batch_size": 4096, "max_wait_s": 5e-3}


def report_row(name: str, report, n_replicas: int) -> dict:
    """Flatten one ScenarioReport (+ ClusterStats) into a JSON row."""
    stats = report.stats
    lost = stats.queries_submitted - stats.queries_answered
    admitted = report.queries_admitted
    outage = report.phases[OUTAGE_PHASE] if len(report.phases) > 1 else None
    return {
        "scenario": name,
        "replicas": n_replicas,
        "offered": report.queries_offered,
        "admitted": admitted,
        "shed": report.queries_shed,
        "shed_rate": report.shed_rate,
        "lost": int(lost),
        "availability": (
            stats.queries_answered / admitted if admitted else 1.0
        ),
        "retried": stats.queries_retried,
        "hedges_issued": stats.hedges_issued,
        "hedges_won": stats.hedges_won,
        "faults": stats.faults_injected,
        "membership_events": stats.membership_events,
        "throughput_qps": report.throughput_qps,
        "latency_p50_us": report.latency_p50_s * 1e6,
        "latency_p99_us": report.latency_p99_s * 1e6,
        "outage_p99_us": (
            outage.latency_p99_s * 1e6 if outage is not None else 0.0
        ),
    }


def render_table(config, rows) -> str:
    lines = [
        "Chaos suite: availability and tail latency under injected faults",
        f"replicas           : {config['replicas']} "
        f"(max_pending={config['max_pending']}; rolling restart uses "
        f"{config['rolling_replicas']})",
        f"hedging            : {config['hedge_delay_us']:.1f}us delay "
        "(fault-free p99 of the control run)",
        f"scenario scale     : {config['scale']:g} (durations; rates fixed)",
        "",
        f"{'scenario':<22} {'offered':>8} {'shed':>7} {'lost':>5} "
        f"{'retried':>8} {'hedge w/i':>9} {'faults':>6} "
        f"{'p99 us':>8} {'outage p99':>10}",
    ]
    for row in rows:
        hedge = f"{row['hedges_won']}/{row['hedges_issued']}"
        lines.append(
            f"{row['scenario']:<22} {row['offered']:>8} "
            f"{row['shed_rate']:>6.1%} {row['lost']:>5} {row['retried']:>8} "
            f"{hedge:>9} {row['faults']:>6} {row['latency_p99_us']:>8.1f} "
            f"{row['outage_p99_us']:>10.1f}"
        )
    return "\n".join(lines)


def slowdown_variant(kill: ChaosScenario, factor: float) -> ChaosScenario:
    """The replica-kill traffic with a slowdown instead of a kill.

    Nothing dies, so no retries fire; instead the outage-window batches on
    replica 0 run ``factor`` times slower and the hedging path gets to win.
    """
    pre = kill.scenario.phases[0].duration_s
    outage = kill.scenario.phases[1].duration_s
    return ChaosScenario(
        scenario=dataclasses.replace(kill.scenario, name="chaos-slowdown"),
        events=(
            FaultEvent(pre, "slowdown", replica=0, factor=factor),
            FaultEvent(pre + outage, "slowdown", replica=0, factor=1.0),
        ),
        description="replica 0 serves far slower through the outage window",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument(
        "--rolling-replicas",
        type=int,
        default=3,
        help="cluster size for the rolling-restart scenario",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=8192,
        help="cluster admission bound (queries)",
    )
    parser.add_argument(
        "--slowdown-factor",
        type=float,
        default=2000.0,
        help="service-time factor for the hedged slowdown variant (must "
        "push a batch's service time past the hedge delay)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=BENCH_SCALE,
        help="scenario duration scale (default: REPRO_BENCH_SCALE)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless no query is lost, answers verify, "
        "availability holds and the kill window shows in the tail",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()

    # Fault-free control: the replica-kill traffic on an injector-less
    # cluster of the same size.  Its p99 prices the hedging delay and
    # anchors the kill-window comparison.
    kill = make_chaos_scenario(
        "chaos-replica-kill", scale=args.scale, seed=args.seed
    )
    base = ClusterConfig(
        n_replicas=args.replicas, max_pending=args.max_pending, **BATCHING
    )
    control_cluster = ClusterService(config=base)
    control = replay(
        control_cluster,
        kill.scenario,
        admission_window_s=ADMISSION_WINDOW_S,
        check_answers=True,
    )
    hedge_delay_s = max(control.latency_p99_s, 1e-6)

    rows = [report_row("fault-free control", control, args.replicas)]
    for name in sorted(CHAOS_SCENARIOS):
        n = (
            args.rolling_replicas
            if name == "chaos-rolling-restart"
            else args.replicas
        )
        chaos = make_chaos_scenario(name, scale=args.scale, seed=args.seed)
        report = replay_chaos(
            chaos,
            config=base.derive(n_replicas=n, hedge_delay_s=hedge_delay_s),
            admission_window_s=ADMISSION_WINDOW_S,
            check_answers=True,
        )
        rows.append(report_row(name, report, n))

    # Hedging demo: same traffic, replica 0 slowed instead of killed, on a
    # blind round-robin router (a load-aware router would simply steer
    # around the slow replica and the hedge path would stay cold).  Run
    # with hedging off then on; the delta is what hedged dispatch buys.
    slow = slowdown_variant(kill, args.slowdown_factor)
    for label, delay in (
        ("chaos-slowdown/unhedged", None),
        ("chaos-slowdown/hedged", hedge_delay_s),
    ):
        slow_report = replay_chaos(
            slow,
            config=base.derive(router="round-robin", hedge_delay_s=delay),
            admission_window_s=ADMISSION_WINDOW_S,
            check_answers=True,
        )
        rows.append(report_row(label, slow_report, args.replicas))
    wall_s = time.perf_counter() - start

    config = {
        "replicas": args.replicas,
        "rolling_replicas": args.rolling_replicas,
        "max_pending": args.max_pending,
        "slowdown_factor": args.slowdown_factor,
        "hedge_delay_us": hedge_delay_s * 1e6,
        "scale": args.scale,
        "admission_window_ms": ADMISSION_WINDOW_S * 1e3,
        "seed": args.seed,
        "bench_scale": BENCH_SCALE,
    }
    table = render_table(config, rows)
    print(table)

    def cell(scenario: str) -> dict:
        return next(r for r in rows if r["scenario"] == scenario)

    control_row = cell("fault-free control")
    kill_row = cell("chaos-replica-kill")
    unhedged_row = cell("chaos-slowdown/unhedged")
    hedged_row = cell("chaos-slowdown/hedged")
    chaos_rows = [r for r in rows if r is not control_row]
    headline = {
        "scenarios_run": len(chaos_rows),
        "availability": min(r["availability"] for r in chaos_rows),
        "lost_queries": int(sum(r["lost"] for r in rows)),
        "kill_p99_ms": kill_row["outage_p99_us"] / 1e3,
        "fault_free_p99_ms": control_row["outage_p99_us"] / 1e3,
        "kill_tail_ratio": (
            kill_row["outage_p99_us"] / control_row["outage_p99_us"]
            if control_row["outage_p99_us"]
            else 0.0
        ),
        # How much hedging shaves off the straggler's outage-window p99
        # (unhedged / hedged; > 1 means hedging won).
        "hedge_tail_ratio": (
            unhedged_row["outage_p99_us"] / hedged_row["outage_p99_us"]
            if hedged_row["outage_p99_us"]
            else 0.0
        ),
        "hedged_p99_ms": hedged_row["outage_p99_us"] / 1e3,
        "queries_retried": int(sum(r["retried"] for r in rows)),
        "hedges_won": int(sum(r["hedges_won"] for r in rows)),
        "total_admitted": int(sum(r["admitted"] for r in rows)),
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "chaos.txt").write_text(table + "\n", encoding="utf-8")
    payload = {
        "benchmark": "chaos",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": config,
        "rows": rows,
        "wall_s": wall_s,
        "headline": headline,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {JSON_PATH} and {RESULTS_DIR / 'chaos.txt'}")

    if args.check:
        failures = []
        if headline["lost_queries"] != 0:
            failures.append(
                f"{headline['lost_queries']} admitted queries were lost "
                "(every admitted query must be answered)"
            )
        if headline["availability"] < 0.999:
            failures.append(
                f"availability {headline['availability']:.4%} is below "
                "99.9% outside shed accounting"
            )
        empty = [r["scenario"] for r in rows if r["admitted"] == 0]
        if empty:
            failures.append(f"scenarios admitted zero queries: {empty}")
        if kill_row["retried"] == 0:
            failures.append(
                "the replica kill retried nothing (failover path never "
                "engaged)"
            )
        if headline["kill_tail_ratio"] > 2.0:
            failures.append(
                "kill-window p99 blew past 2x the fault-free control "
                f"({headline['kill_tail_ratio']:.3f}x) — eviction should "
                "bound the damage to about one extra flush deadline"
            )
        if hedged_row["hedges_won"] == 0:
            failures.append(
                "the slowdown run won no hedges (hedged dispatch never "
                "engaged)"
            )
        if headline["hedge_tail_ratio"] <= 1.0:
            failures.append(
                "hedging did not improve the straggler's outage p99 "
                f"({headline['hedge_tail_ratio']:.3f}x unhedged/hedged)"
            )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            "check ok: zero lost queries, answers verified, availability "
            f"{headline['availability']:.4%}, kill-window p99 "
            f"{headline['kill_tail_ratio']:.2f}x fault-free, hedging cut "
            f"the straggler tail {headline['hedge_tail_ratio']:.2f}x "
            f"({headline['hedges_won']} hedges won)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
