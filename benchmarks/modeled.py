#!/usr/bin/env python
"""The six modeled headlines: one driver, one envelope, one equality gate.

``cluster_scaling``, ``scenarios``, ``chaos``, ``adaptive``, ``autoscale``
and ``backends`` report *modeled* time on the simulated clock, driven by
seeded generators at the configuration committed below as module constants.
A given tree of sources therefore produces the same rows to the last bit, and
the regression gate is equality with the committed ``BENCH_<suite>.json`` —
not a ratio band per metric, which lets a headline drift inside its band
until somebody reads the file.

    python benchmarks/modeled.py                # run every suite, print its table
    python benchmarks/modeled.py chaos adaptive # ... or only the named ones
    python benchmarks/modeled.py --check        # regenerate in memory, compare
    python benchmarks/modeled.py --write        # rewrite the committed baselines

``--check`` touches no file.  It fails on the first key, named by its dotted
path (``rows.3.score``), at which a regenerated payload and the committed file
differ — every key but the host-dependent ones in ``VOLATILE`` — and on any
structural assertion a suite makes about its own rows (throughput monotone in
replicas, flash-crowd sheds and steady does not, zero lost queries, the
adaptive / reactive / calibrated run beats the best static one, ...).
``--write`` rewrites ``BENCH_<suite>.json`` and ``results/<suite>.txt`` for
the suites whose assertions hold: run it at a commit whose modeled numbers are
*meant* to move, and say why in the PR.

``REPRO_BENCH_SCALE`` scales every suite's stream (durations, not rates; the
scaling sweep's tree and stream sizes).  A scaled run may print — with the
assertions it violates as notes, since the declared SLOs are sized for scale
1 — but it is neither compared with nor written over the committed baselines.

Host-clock numbers come from the layer benchmark (``benchmarks/layers/``),
except the observability overhead bench (``bench_obs_overhead.py``), which
keeps its ratio gates in ``check_regression.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.backends import (
    BackendCalibration,
    CalibrationProfile,
    calibrate_backends,
)
from repro.control import SLO, AutoscalePolicy, Controller
from repro.device import XEON_X5650_SINGLE
from repro.experiments.service_experiments import (
    replica_scaling_sweep,
    scenario_suite,
)
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    LCAQueryService,
    ServiceConfig,
    dispatcher_for,
)
from repro.service.dispatch import Backend, CostModelDispatcher
from repro.workloads import (
    CHAOS_SCENARIOS,
    SCENARIOS,
    ChaosScenario,
    Phase,
    PoissonArrivals,
    Scenario,
    TrafficSource,
    make_chaos_scenario,
    make_scenario,
    replay,
    replay_chaos,
)

from bench_util import BENCH_SCALE, RESULTS_DIR

#: Dotted paths the equality gate does not compare: they describe the host a
#: baseline was written on, not what the modeled system did.
VOLATILE = (
    "timestamp",
    "machine.platform",
    "machine.python",
    "wall_s",
    "live_calibration",
)

#: The only tolerance: relative, on floats, and only when the running NumPy
#: is not the ``machine.numpy`` the committed file records (another release
#: may sum a percentile in another order).  Same NumPy, same bits.
NUMPY_DRIFT_RTOL = 1e-9

#: Every suite draws its trees and arrivals from this seed.
SEED = 0

#: One front-door admission tick (``autoscale`` observes ten times finer).
ADMISSION_WINDOW_S = 5e-3


@dataclasses.dataclass
class SuiteRun:
    """What a suite hands the driver."""

    #: ``config``, ``rows``, (``ratios``,) ``headline``: the modeled payload.
    body: dict
    #: Rendered for stdout and ``results/<suite>.txt``.
    table: str
    #: Structural assertions the rows violate, one line each.
    failures: List[str]
    #: The line printed when they violate none.
    verdict: str


def cell(rows, **match) -> dict:
    """The one row whose columns equal ``match``."""
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def traffic_columns(report) -> dict:
    """The totals of one replayed run every comparison suite tabulates."""
    return {
        "offered": report.queries_offered,
        "admitted": report.queries_admitted,
        "shed_rate": report.shed_rate,
        "throughput_qps": report.throughput_qps,
        "latency_p50_us": report.latency_p50_s * 1e6,
        "latency_p99_us": report.latency_p99_s * 1e6,
    }


def score_run(report, slo: SLO, cost_s: float, tenant_p99_bounds=None) -> dict:
    """Cost x SLO-penalty scoring of one replayed run.

        cost    = ``cost_s`` per answered query (us)
        penalty = product over declared bounds of max(1, actual / bound)
        score   = cost * penalty            (lower is better)

    ``cost_s`` is what the suite bills the run for: modeled backend-busy
    seconds (``adaptive``, ``backends``: work done) or replica-seconds alive
    (``autoscale``: capacity kept provisioned, the quantity scaling exists to
    shrink).  ``tenant_p99_bounds`` adds per-dataset tail bounds to the SLO's.
    """
    answered = int(report.stats.queries_answered)
    cost_us = cost_s / answered * 1e6 if answered else float("inf")
    tenant_p99 = dict(report.dataset_latency_p99_s)
    ratios = [
        (f"{tenant}-p99", tenant_p99.get(tenant, 0.0) / bound)
        for tenant, bound in sorted((tenant_p99_bounds or {}).items())
    ]
    if slo.p99_latency_s is not None:
        ratios.append(("p99", report.latency_p99_s / slo.p99_latency_s))
    if slo.max_shed_rate is not None:
        ratios.append(("shed", report.shed_rate / slo.max_shed_rate))
    if slo.min_throughput_qps is not None and report.throughput_qps > 0:
        ratios.append(("throughput", slo.min_throughput_qps / report.throughput_qps))
    penalty = 1.0
    for _, ratio in ratios:
        penalty *= max(1.0, ratio)
    violations = [name for name, ratio in ratios if ratio > 1.0]
    return {
        "cost_us_per_query": cost_us,
        "penalty": penalty,
        "score": cost_us * penalty,
        "slo_violations": violations,
        "slo_met": not violations,
    }


def best_static_ratios(rows, contender: str) -> dict:
    """Per scenario: the best static row's score over the ``contender`` row's."""
    ratios = {}
    for name in sorted({r["scenario"] for r in rows}):
        contending = cell(rows, scenario=name, config=contender)
        statics = [
            r for r in rows if r["scenario"] == name and r["config"] != contender
        ]
        best_static = min(statics, key=lambda r: r["score"])
        ratios[name] = {
            "best_static_config": best_static["config"],
            "best_static_score": best_static["score"],
            f"{contender}_score": contending["score"],
            "ratio": best_static["score"] / contending["score"],
        }
    return ratios


def slo_breach(row) -> str:
    return (
        f"{row['slo_violations']} (p99={row['latency_p99_us']:.1f}us, "
        f"shed={row['shed_rate']:.2%})"
    )


# ----------------------------------------------------------------------
# cluster_scaling
# ----------------------------------------------------------------------
SCALING_NODES = max(4096, int(65_536 * BENCH_SCALE))
SCALING_QUERIES = max(8192, int(131_072 * BENCH_SCALE))
SCALING_REPLICA_COUNTS = (1, 2, 4, 8)
SCALING_CHUNK = 8192

#: Policies expected to scale with the replica count (consistent-hash pins
#: the single hot dataset to one copy by design, so it is excluded).
SCALING_POLICIES = ("round-robin", "least-outstanding")


def single_replica_equivalence(queries: int) -> bool:
    """A 1-replica cluster must be bit-identical to the plain service."""
    parents = random_attachment_tree(SCALING_NODES, seed=SEED)
    xs, ys = generate_random_queries(SCALING_NODES, queries, seed=SEED + 1)
    arrivals = np.arange(queries, dtype=np.float64) * 2e-7
    config = ServiceConfig(max_batch_size=256, max_wait_s=2e-4)

    plain = LCAQueryService(config=config)
    plain.register_tree("hot", parents)
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=1, max_batch_size=256, max_wait_s=2e-4)
    )
    cluster.register_tree("hot", parents, replicas=1)

    plain_tickets, cluster_tickets = [], []
    for i in range(0, queries, SCALING_CHUNK):
        sl = slice(i, i + SCALING_CHUNK)
        plain_tickets.append(plain.submit_many("hot", xs[sl], ys[sl], at=arrivals[sl]))
        cluster_tickets.append(
            cluster.submit_many("hot", xs[sl], ys[sl], at=arrivals[sl])
        )
    plain.drain()
    cluster.drain()
    pt = np.concatenate(plain_tickets)
    ct = np.concatenate(cluster_tickets)
    return (
        np.array_equal(pt, ct)
        and np.array_equal(plain.results(pt), cluster.results(ct))
        and np.array_equal(plain.latencies(pt), cluster.latencies(ct))
    )


def cluster_scaling() -> SuiteRun:
    """Modeled throughput vs replica count x routing policy.

    Drives :func:`repro.experiments.service_experiments.replica_scaling_sweep`:
    one hot dataset fully replicated across the cluster, a warmed index cache,
    and an offered load that deeply saturates even the largest configuration.
    Two properties are asserted: the load-spreading policies deliver
    **strictly increasing** throughput from the smallest to the largest
    replica count, and a 1-replica cluster is **bit-identical** to a plain
    ``LCAQueryService`` fed the same chunked stream — same tickets, answers
    and modeled latencies.
    """
    rows = replica_scaling_sweep(
        n=SCALING_NODES,
        q=SCALING_QUERIES,
        replica_counts=SCALING_REPLICA_COUNTS,
        chunk=SCALING_CHUNK,
        seed=SEED,
    )
    equivalent = single_replica_equivalence(min(SCALING_QUERIES, 32_768))
    series = {
        policy: [r["throughput_qps"] for r in rows if r["policy"] == policy]
        for policy in SCALING_POLICIES
    }
    monotone = {
        policy: all(b > a for a, b in zip(qps, qps[1:]))
        for policy, qps in series.items()
    }
    config = {
        "nodes": SCALING_NODES,
        "queries": SCALING_QUERIES,
        "replica_counts": list(SCALING_REPLICA_COUNTS),
        "chunk": SCALING_CHUNK,
        "offered_qps": rows[0]["offered_qps"],
        "bench_scale": BENCH_SCALE,
        "seed": SEED,
    }
    headline = {
        "peak_throughput_qps": max(max(qps) for qps in series.values()),
        "scaling_1_to_max": (
            series["least-outstanding"][-1] / series["least-outstanding"][0]
        ),
        "monotone": monotone,
        "single_replica_bit_identical": equivalent,
    }

    lines = [
        "Cluster scaling: modeled throughput vs replica count x routing policy",
        f"tree nodes         : {config['nodes']}",
        f"stream length      : {config['queries']} queries in "
        f"{config['chunk']}-query blocks",
        f"offered load       : {config['offered_qps']:,.0f} q/s "
        "(2x modeled GPU capacity of the largest cluster)",
        "policy             : batch<=256, wait<=200us, warmed index caches",
        "",
        f"{'router':<19} {'replicas':>8} {'modeled q/s':>14} {'p50 us':>9} "
        f"{'p99 us':>9} {'imbalance':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['policy']:<19} {row['replicas']:>8} "
            f"{row['throughput_qps']:>14,.0f} {row['latency_p50_us']:>9.1f} "
            f"{row['latency_p99_us']:>9.1f} {row['load_imbalance']:>10.2f}"
        )
    lines.append("")
    for policy, is_monotone in monotone.items():
        verdict = "monotone" if is_monotone else "NOT monotone"
        lines.append(f"{policy:<19}: throughput {verdict} in replica count")
    lines.append(
        "1-replica cluster  : "
        + ("bit-identical to LCAQueryService" if equivalent else "DIVERGES")
    )

    failures = []
    unscaled = [policy for policy, ok in monotone.items() if not ok]
    if unscaled:
        failures.append(f"throughput not monotone in replica count for {unscaled}")
    if not equivalent:
        failures.append("1-replica cluster diverges from LCAQueryService")
    return SuiteRun(
        {"config": config, "rows": rows, "headline": headline},
        "\n".join(lines),
        failures,
        f"throughput monotone in replica count for {list(monotone)}, 1-replica "
        "cluster bit-identical to the plain service",
    )


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
MATRIX_REPLICAS = 4
MATRIX_MAX_PENDING = 8192

#: Every named scenario runs under the default router ...
MATRIX_POLICIES = ("least-outstanding",)

#: ... and the scenarios whose shape depends on routing under the others too.
SWEEP_SCENARIOS = ("skewed-hotspot", "multi-tenant")
SWEEP_POLICIES = ("round-robin", "consistent-hash")


def scenarios() -> SuiteRun:
    """Every named workload on one bounded replica cluster.

    Drives :func:`repro.experiments.service_experiments.scenario_suite`: each
    named scenario (steady, diurnal, flash-crowd, skewed-hotspot,
    multi-tenant) replayed on a fresh 4-replica cluster with a bounded
    admission queue under the default router, plus a router-policy sweep on
    the scenarios where policy choice matters.  Asserted: every named scenario
    runs end to end and answers queries (no silent empty replays); the
    **flash-crowd** scenario provably trips admission control — its flash
    phase sheds through the typed ``Overloaded`` path — while **steady** sheds
    nothing; every admitted answer matches the binary-lifting oracle.
    """
    common = dict(
        n_replicas=MATRIX_REPLICAS,
        max_pending=MATRIX_MAX_PENDING,
        admission_window_s=ADMISSION_WINDOW_S,
        scale=BENCH_SCALE,
        seed=SEED,
        check_answers=True,
    )
    rows = scenario_suite(sorted(SCENARIOS), policies=MATRIX_POLICIES, **common)
    rows += scenario_suite(SWEEP_SCENARIOS, policies=SWEEP_POLICIES, **common)
    config = {
        "replicas": MATRIX_REPLICAS,
        "max_pending": MATRIX_MAX_PENDING,
        "policies": list(MATRIX_POLICIES),
        "scale": BENCH_SCALE,
        "admission_window_ms": ADMISSION_WINDOW_S * 1e3,
        "seed": SEED,
        "bench_scale": BENCH_SCALE,
    }
    steady_row = cell(rows, scenario="steady", policy=MATRIX_POLICIES[0])
    flash_row = cell(rows, scenario="flash-crowd", policy=MATRIX_POLICIES[0])
    headline = {
        "scenarios_run": len({r["scenario"] for r in rows}),
        "steady_throughput_qps": steady_row["throughput_qps"],
        "steady_shed_rate": steady_row["shed_rate"],
        "flash_crowd_shed_rate": flash_row["shed_rate"],
        "flash_crowd_peak_phase_shed_rate": flash_row["peak_phase_shed_rate"],
        "total_admitted": int(sum(r["admitted"] for r in rows)),
    }

    lines = [
        "Scenario matrix: named workloads on one bounded replica cluster",
        f"replicas           : {config['replicas']} "
        f"(max_pending={config['max_pending']})",
        "policy             : batch<=256, wait<=200us, warmed index caches, "
        f"{config['admission_window_ms']:.0f}ms admission windows",
        f"scenario scale     : {config['scale']:g} (durations; rates fixed)",
        "",
        f"{'scenario':<16} {'router':<19} {'offered':>8} {'shed':>7} "
        f"{'modeled q/s':>12} {'p50 us':>8} {'p99 us':>8} {'imbal':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:<16} {row['policy']:<19} {row['offered']:>8} "
            f"{row['shed_rate']:>6.1%} {row['throughput_qps']:>12,.0f} "
            f"{row['latency_p50_us']:>8.1f} {row['latency_p99_us']:>8.1f} "
            f"{row['load_imbalance']:>6.2f}"
        )

    failures = []
    if headline["scenarios_run"] != len(SCENARIOS):
        failures.append(
            f"expected {len(SCENARIOS)} scenarios, ran {headline['scenarios_run']}"
        )
    empty = [r["scenario"] for r in rows if r["admitted"] == 0]
    if empty:
        failures.append(f"scenarios admitted zero queries: {empty}")
    if steady_row["shed_rate"] != 0.0:
        failures.append(
            f"steady scenario shed {steady_row['shed_rate']:.1%} (must never shed)"
        )
    if flash_row["shed_rate"] <= 0.0:
        failures.append(
            "flash-crowd scenario did not shed (admission control never engaged)"
        )
    return SuiteRun(
        {"config": config, "rows": rows, "headline": headline},
        "\n".join(lines),
        failures,
        "all scenarios ran, answers verified, flash-crowd shed "
        f"{flash_row['shed_rate']:.1%}, steady shed 0",
    )


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
CHAOS_REPLICAS = 2
CHAOS_ROLLING_REPLICAS = 3
CHAOS_MAX_PENDING = 8192

#: Service-time factor of the hedged slowdown variant: it must push a batch's
#: service time past the hedge delay.
CHAOS_SLOWDOWN_FACTOR = 2000.0

#: The phase whose p99 is the kill-window tail in the replica-kill runs.
OUTAGE_PHASE = 1

#: Batching knobs for every run: a 5ms flush deadline keeps enough work
#: pending that a kill visibly strands queries (with the 1ms default, the
#: stranded set is too small a fraction of the outage phase to reach p99).
CHAOS_BATCHING = {"max_batch_size": 4096, "max_wait_s": 5e-3}


def chaos_row(name: str, report, n_replicas: int) -> dict:
    """Flatten one ScenarioReport (+ ClusterStats) into a JSON row."""
    stats = report.stats
    admitted = report.queries_admitted
    outage = report.phases[OUTAGE_PHASE] if len(report.phases) > 1 else None
    return {
        "scenario": name,
        "replicas": n_replicas,
        "offered": report.queries_offered,
        "admitted": admitted,
        "shed": report.queries_shed,
        "shed_rate": report.shed_rate,
        "lost": int(stats.queries_submitted - stats.queries_answered),
        "availability": stats.queries_answered / admitted if admitted else 1.0,
        "retried": stats.queries_retried,
        "hedges_issued": stats.hedges_issued,
        "hedges_won": stats.hedges_won,
        "faults": stats.faults_injected,
        "membership_events": stats.membership_events,
        "throughput_qps": report.throughput_qps,
        "latency_p50_us": report.latency_p50_s * 1e6,
        "latency_p99_us": report.latency_p99_s * 1e6,
        "outage_p99_us": outage.latency_p99_s * 1e6 if outage is not None else 0.0,
    }


def slowdown_variant(kill: ChaosScenario) -> ChaosScenario:
    """The replica-kill traffic with a slowdown instead of a kill.

    Nothing dies, so no retries fire; instead the outage-window batches on
    replica 0 run ``CHAOS_SLOWDOWN_FACTOR`` times slower and the hedging path
    gets to win.
    """
    pre = kill.scenario.phases[0].duration_s
    outage = kill.scenario.phases[1].duration_s
    return ChaosScenario(
        scenario=dataclasses.replace(kill.scenario, name="chaos-slowdown"),
        events=(
            FaultEvent(pre, "slowdown", replica=0, factor=CHAOS_SLOWDOWN_FACTOR),
            FaultEvent(pre + outage, "slowdown", replica=0, factor=1.0),
        ),
        description="replica 0 serves far slower through the outage window",
    )


def chaos() -> SuiteRun:
    """Availability and tail latency under injected faults.

    Replays every ``chaos-*`` scenario (replica kill, kill-under-flash-crowd,
    rolling restart, elastic scale-out) on a fault-injected bounded cluster,
    plus a hedged slowdown variant and a fault-free control of the same
    traffic.  Asserted:

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
    """
    # Fault-free control: the replica-kill traffic on an injector-less
    # cluster of the same size.  Its p99 prices the hedging delay and
    # anchors the kill-window comparison.
    kill = make_chaos_scenario("chaos-replica-kill", scale=BENCH_SCALE, seed=SEED)
    base = ClusterConfig(
        n_replicas=CHAOS_REPLICAS, max_pending=CHAOS_MAX_PENDING, **CHAOS_BATCHING
    )
    control = replay(
        ClusterService(config=base),
        kill.scenario,
        admission_window_s=ADMISSION_WINDOW_S,
        check_answers=True,
    )
    hedge_delay_s = max(control.latency_p99_s, 1e-6)

    rows = [chaos_row("fault-free control", control, CHAOS_REPLICAS)]
    for name in sorted(CHAOS_SCENARIOS):
        n = (
            CHAOS_ROLLING_REPLICAS
            if name == "chaos-rolling-restart"
            else CHAOS_REPLICAS
        )
        report = replay_chaos(
            make_chaos_scenario(name, scale=BENCH_SCALE, seed=SEED),
            config=base.derive(n_replicas=n, hedge_delay_s=hedge_delay_s),
            admission_window_s=ADMISSION_WINDOW_S,
            check_answers=True,
        )
        rows.append(chaos_row(name, report, n))

    # Hedging demo: same traffic, replica 0 slowed instead of killed, on a
    # blind round-robin router (a load-aware router would simply steer
    # around the slow replica and the hedge path would stay cold).  Run
    # with hedging off then on; the delta is what hedged dispatch buys.
    slow = slowdown_variant(kill)
    for label, delay in (
        ("chaos-slowdown/unhedged", None),
        ("chaos-slowdown/hedged", hedge_delay_s),
    ):
        report = replay_chaos(
            slow,
            config=base.derive(router="round-robin", hedge_delay_s=delay),
            admission_window_s=ADMISSION_WINDOW_S,
            check_answers=True,
        )
        rows.append(chaos_row(label, report, CHAOS_REPLICAS))

    config = {
        "replicas": CHAOS_REPLICAS,
        "rolling_replicas": CHAOS_ROLLING_REPLICAS,
        "max_pending": CHAOS_MAX_PENDING,
        "slowdown_factor": CHAOS_SLOWDOWN_FACTOR,
        "hedge_delay_us": hedge_delay_s * 1e6,
        "scale": BENCH_SCALE,
        "admission_window_ms": ADMISSION_WINDOW_S * 1e3,
        "seed": SEED,
        "bench_scale": BENCH_SCALE,
    }
    control_row = cell(rows, scenario="fault-free control")
    kill_row = cell(rows, scenario="chaos-replica-kill")
    unhedged_row = cell(rows, scenario="chaos-slowdown/unhedged")
    hedged_row = cell(rows, scenario="chaos-slowdown/hedged")
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
            "the replica kill retried nothing (failover path never engaged)"
        )
    if headline["kill_tail_ratio"] > 2.0:
        failures.append(
            "kill-window p99 blew past 2x the fault-free control "
            f"({headline['kill_tail_ratio']:.3f}x) — eviction should "
            "bound the damage to about one extra flush deadline"
        )
    if hedged_row["hedges_won"] == 0:
        failures.append(
            "the slowdown run won no hedges (hedged dispatch never engaged)"
        )
    if headline["hedge_tail_ratio"] <= 1.0:
        failures.append(
            "hedging did not improve the straggler's outage p99 "
            f"({headline['hedge_tail_ratio']:.3f}x unhedged/hedged)"
        )
    return SuiteRun(
        {"config": config, "rows": rows, "headline": headline},
        "\n".join(lines),
        failures,
        "zero lost queries, answers verified, availability "
        f"{headline['availability']:.4%}, kill-window p99 "
        f"{headline['kill_tail_ratio']:.2f}x fault-free, hedging cut "
        f"the straggler tail {headline['hedge_tail_ratio']:.2f}x "
        f"({headline['hedges_won']} hedges won)",
    )


# ----------------------------------------------------------------------
# adaptive
# ----------------------------------------------------------------------
ADAPTIVE_REPLICAS = 4

#: Starting cluster admission bound (the adaptive run may raise it).
ADAPTIVE_MAX_PENDING = 4096

#: Controller observation interval, simulated seconds.
ADAPTIVE_INTERVAL_S = 2e-3

#: The static sweep: small flushes fast, large is cheap per query.
ADAPTIVE_STATICS = (
    ("static-small", 64, 1e-4),
    ("static-medium", 256, 2e-4),
    ("static-large", 1024, 1e-3),
)

#: The adaptive run starts from the middle of the static sweep; the
#: controller owns the knobs from the first observation on.
ADAPTIVE_START = ("adaptive", 256, 2e-4)

#: Declared objectives per scenario.  Tail bounds are on the modeled
#: end-to-end p99; shed bounds on the fraction of offered queries
#: rejected by admission control.  The multi-tenant weights give the
#: small premium tenant the shortest wait lane.
ADAPTIVE_SLOS = {
    "steady": SLO(p99_latency_s=3e-4, max_shed_rate=1e-3),
    "diurnal": SLO(p99_latency_s=3e-4, max_shed_rate=0.01),
    # The flash phase offers ~50x sustainable load for a whole phase, so
    # heavy shedding is physics, not a tuning failure; the bound caps how
    # much of the *whole trace* may be lost while the controller absorbs
    # what capacity allows.
    "flash-crowd": SLO(p99_latency_s=5e-4, max_shed_rate=0.70),
    "skewed-hotspot": SLO(p99_latency_s=3e-4, max_shed_rate=0.01),
    "multi-tenant": SLO(
        p99_latency_s=3e-4,
        max_shed_rate=0.02,
        tenant_weights=(
            ("tenant-small", 4.0),
            ("tenant-medium", 2.0),
            ("tenant-large", 1.0),
        ),
    ),
}

#: Per-tenant tail bounds, declared alongside the scenario SLO: the small
#: premium tenant buys a tight deadline only priority lanes can deliver
#: without shortening every tenant's wait (and paying everyone's cost).
TENANT_P99_BOUNDS = {
    "multi-tenant": {"tenant-small": 8e-5},
}

#: The headline ratio is the worst case over the scenarios where load
#: varies in time — the ones a static config cannot straddle.
ADAPTIVE_HEADLINE_SCENARIOS = ("flash-crowd", "diurnal", "multi-tenant")


def adaptive_row(scenario_name, label, batch, wait, adaptive) -> dict:
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=ADAPTIVE_REPLICAS,
            max_batch_size=batch,
            max_wait_s=wait,
            max_pending=ADAPTIVE_MAX_PENDING,
        )
    )
    slo = ADAPTIVE_SLOS[scenario_name]
    controller = Controller(slo, interval_s=ADAPTIVE_INTERVAL_S) if adaptive else None
    report = replay(
        cluster,
        make_scenario(scenario_name, scale=BENCH_SCALE, seed=SEED),
        admission_window_s=ADMISSION_WINDOW_S,
        check_answers=True,
        controller=controller,
    )
    row = {
        "scenario": scenario_name,
        "config": label,
        "max_batch_size": batch,
        "max_wait_us": wait * 1e6,
        **traffic_columns(report),
        "tenant_p99_us": {
            name: p99 * 1e6 for name, p99 in report.dataset_latency_p99_s
        },
        "decisions": len(controller.decisions) if controller else 0,
        **score_run(
            report,
            slo,
            report.stats.busy_time_s,
            TENANT_P99_BOUNDS.get(scenario_name),
        ),
    }
    if controller:
        row["final_max_batch_size"] = cluster.config.max_batch_size
        row["final_max_wait_us"] = cluster.config.max_wait_s * 1e6
        row["final_max_pending"] = cluster.config.max_pending
    return row


def adaptive() -> SuiteRun:
    """Adaptive SLO control vs the best static config, across every scenario.

    Each named scenario replays on a bounded replica cluster configured four
    ways: three *static* batching configs spanning the latency/cost trade-off
    (small batches flush fast but waste backend time, big batches are cheap
    per query but queue-heavy), and one *adaptive* run where a
    :class:`repro.control.Controller` retunes batch size, wait deadline and
    admission limit online against the scenario's declared
    :class:`repro.control.SLO` — including priority lanes on the multi-tenant
    mix.  Every admitted answer is verified against the binary-lifting oracle,
    retuning included.  Runs are scored by :func:`score_run` on modeled
    backend-busy seconds per answered query.

    The headline ``adaptive_vs_best_static`` is the worst-case ratio of the
    *best* static score to the adaptive score over the time-varying scenarios
    (flash-crowd, diurnal, multi-tenant) — above 1.0 means no single static
    config matches the controller there.  Asserted: the adaptive run meets
    every declared SLO, never sheds on steady, and that ratio exceeds 1.
    """
    rows = [
        adaptive_row(name, label, batch, wait, adaptive=label == "adaptive")
        for name in sorted(SCENARIOS)
        for label, batch, wait in (*ADAPTIVE_STATICS, ADAPTIVE_START)
    ]
    ratios = best_static_ratios(rows, "adaptive")
    adaptive_rows = [r for r in rows if r["config"] == "adaptive"]
    steady_adaptive = cell(adaptive_rows, scenario="steady")
    headline = {
        "adaptive_vs_best_static": min(
            ratios[name]["ratio"] for name in ADAPTIVE_HEADLINE_SCENARIOS
        ),
        "adaptive_slo_violations": sum(len(r["slo_violations"]) for r in adaptive_rows),
        "steady_shed_rate": steady_adaptive["shed_rate"],
        "scenarios_run": len({r["scenario"] for r in rows}),
        "total_decisions": int(sum(r["decisions"] for r in adaptive_rows)),
    }
    config = {
        "replicas": ADAPTIVE_REPLICAS,
        "max_pending": ADAPTIVE_MAX_PENDING,
        "interval_ms": ADAPTIVE_INTERVAL_S * 1e3,
        "scale": BENCH_SCALE,
        "admission_window_ms": ADMISSION_WINDOW_S * 1e3,
        "seed": SEED,
        "bench_scale": BENCH_SCALE,
        "static_configs": [list(c) for c in ADAPTIVE_STATICS],
        "slos": {name: slo.to_dict() for name, slo in ADAPTIVE_SLOS.items()},
        "tenant_p99_bounds": TENANT_P99_BOUNDS,
    }

    lines = [
        "Adaptive SLO control vs static configs, full scenario library",
        f"replicas           : {config['replicas']} "
        f"(max_pending={config['max_pending']})",
        f"controller         : interval={config['interval_ms']:g}ms, "
        "AIMD on batch/wait/admission, per-tenant lanes",
        f"scenario scale     : {config['scale']:g} (durations; rates fixed)",
        "score              : busy-us/query x SLO penalty (lower is better)",
        "",
        f"{'scenario':<16} {'config':<14} {'shed':>7} {'p99 us':>8} "
        f"{'cost us':>8} {'penalty':>8} {'score':>9} {'SLO':>4} {'moves':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:<16} {row['config']:<14} "
            f"{row['shed_rate']:>6.1%} {row['latency_p99_us']:>8.1f} "
            f"{row['cost_us_per_query']:>8.3f} {row['penalty']:>8.2f} "
            f"{row['score']:>9.3f} {'ok' if row['slo_met'] else 'VIOL':>4} "
            f"{row['decisions'] or '-':>6}"
        )
    lines.append("")
    lines.append(
        f"{'scenario':<16} {'best static':>12} {'adaptive':>10} "
        f"{'ratio':>7}  (best_static_score / adaptive_score; >1 = adaptive wins)"
    )
    for name, entry in ratios.items():
        lines.append(
            f"{name:<16} {entry['best_static_score']:>12.3f} "
            f"{entry['adaptive_score']:>10.3f} {entry['ratio']:>7.2f}"
        )

    failures = []
    if headline["scenarios_run"] != len(SCENARIOS):
        failures.append(
            f"expected {len(SCENARIOS)} scenarios, ran {headline['scenarios_run']}"
        )
    for row in adaptive_rows:
        if not row["slo_met"]:
            failures.append(
                f"adaptive violated its SLO on {row['scenario']}: {slo_breach(row)}"
            )
    if steady_adaptive["shed_rate"] > 0.0:
        failures.append(
            f"adaptive shed {steady_adaptive['shed_rate']:.2%} on steady "
            "(must not shed)"
        )
    if headline["adaptive_vs_best_static"] <= 1.0:
        worst = min(ADAPTIVE_HEADLINE_SCENARIOS, key=lambda n: ratios[n]["ratio"])
        failures.append(
            "adaptive did not beat the best static config on "
            f"{worst} (ratio {ratios[worst]['ratio']:.2f})"
        )
    return SuiteRun(
        {"config": config, "rows": rows, "ratios": ratios, "headline": headline},
        "\n".join(lines),
        failures,
        "adaptive met every declared SLO and beat the best static config "
        f"{headline['adaptive_vs_best_static']:.2f}x on the headline scenarios",
    )


# ----------------------------------------------------------------------
# autoscale
# ----------------------------------------------------------------------
#: Cluster admission bound: generous, the suite is about the tail, not
#: shedding.
AUTOSCALE_MAX_PENDING = 32768

#: One front-door admission tick = one controller observation: fine
#: enough to catch the flash within half a millisecond of onset.
AUTOSCALE_WINDOW_S = 5e-4

#: The serving device: a single-core CPU derated 32x — an edge node, not
#: a datacenter accelerator.  ~3.1 us modeled per query, so one replica
#: sustains ~320k queries/s and fleet size is a real capacity decision.
EDGE_SPEC = dataclasses.replace(
    XEON_X5650_SINGLE,
    name="Edge node (derated Xeon core, simulated)",
    clock_hz=XEON_X5650_SINGLE.clock_hz / 32,
    mem_bandwidth_bytes=XEON_X5650_SINGLE.mem_bandwidth_bytes / 32,
    dependent_latency_s=XEON_X5650_SINGLE.dependent_latency_s * 32,
)
EDGE_BACKEND = Backend(
    key="edge", label="Edge-node Inlabel", spec=EDGE_SPEC, sequential=True
)

#: Arrival rates, in fractions of one replica's ~320k q/s capacity:
#: calm runs at a quarter replica, the flash at ~4.5 replicas.
CALM_QPS = 80_000.0
FLASH_QPS = 1_440_000.0

#: The static sweep: every fixed fleet size the reactive run must beat.
STATIC_REPLICAS = (1, 2, 4, 8)

#: Shared objective.  Nothing sheds (admission is generous); the fight
#: is entirely over the tail under the flash.
AUTOSCALE_SLO = SLO(p99_latency_s=2e-3, max_shed_rate=0.05)

#: The reactive membership policy: latency-driven.  Scale out three
#: replicas at a time the millisecond the windowed p99 blows past 1 ms,
#: shrink two at a time only after 15 ms of calm tail (hysteresis:
#: 0.6 ms << 1 ms, so recovery-phase jitter cannot flap the fleet).
AUTOSCALE_POLICY = AutoscalePolicy(
    min_replicas=2,
    max_replicas=8,
    signals=("p99",),
    p99_out_s=1e-3,
    p99_in_s=6e-4,
    cooldown_out_s=1e-3,
    cooldown_in_s=15e-3,
    step_out=3,
    step_in=2,
)

#: Calm / flash / recovery on one 4096-node tree.
EDGE_FLASH = Scenario(
    name="edge-flash",
    description="flash at ~4.5x one edge replica's capacity",
    sources=(TrafficSource("edge", nodes=4096, tree_seed=SEED),),
    phases=(
        Phase("calm", PoissonArrivals(CALM_QPS), 0.08 * BENCH_SCALE),
        Phase("flash", PoissonArrivals(FLASH_QPS), 0.02 * BENCH_SCALE),
        Phase("recovery", PoissonArrivals(CALM_QPS), 0.08 * BENCH_SCALE),
    ),
    seed=SEED,
)


def autoscale_row(label, n_replicas, reactive) -> dict:
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=n_replicas,
            max_batch_size=256,
            max_wait_s=2e-4,
            max_pending=AUTOSCALE_MAX_PENDING,
        ),
        dispatcher_factory=lambda: CostModelDispatcher(backends=(EDGE_BACKEND,)),
    )
    controller = Controller(
        AUTOSCALE_SLO,
        interval_s=AUTOSCALE_WINDOW_S,
        wait_fraction=0.1,
        autoscale=AUTOSCALE_POLICY if reactive else None,
    )
    report = replay(
        cluster,
        EDGE_FLASH,
        admission_window_s=AUTOSCALE_WINDOW_S,
        check_answers=True,
        controller=controller,
    )
    membership = [d for d in controller.decisions if d.kind == "membership"]
    return {
        "config": label,
        "start_replicas": n_replicas,
        "final_replicas": cluster.n_active,
        "replicas_by_phase": {
            phase.name: phase.n_replicas_end for phase in report.phases
        },
        "replica_seconds": report.stats.replica_seconds,
        "answered": int(report.stats.queries_answered),
        **traffic_columns(report),
        "decisions": len(controller.decisions),
        "membership_decisions": len(membership),
        "scale_events": [
            {"at_s": d.at_s, "reason": d.reason, "n_replicas": d.n_replicas}
            for d in membership
        ],
        **score_run(report, AUTOSCALE_SLO, report.stats.replica_seconds),
    }


def autoscale() -> SuiteRun:
    """Reactive autoscaling vs every static replica count on a flash crowd.

    A flash crowd is the load shape a fixed fleet cannot straddle: a short
    burst offers several times one replica's capacity while the calm phases
    around it — most of the trace — need almost none.  A small fleet drowns
    during the burst (per-replica backend lanes serialize batches, so the
    backlog shows up as modeled queueing latency and a blown p99); a large
    fleet keeps the tail flat but burns idle replica-seconds all trace long.

    The stock device profiles are far too fast for fleet size to matter (one
    simulated GPU replica absorbs a 5M qps flash without breaking stride),
    so this suite serves on a deliberately modest *edge-node* profile — a
    32x-derated single-core CPU, ~320k queries/s per replica — and sizes the
    flash at ~4.5x one replica's capacity.  The same trace then replays on a
    static cluster at every replica count in {1, 2, 4, 8} and once more
    *reactively*: the cluster starts at the policy floor and a
    :class:`repro.control.Controller` carrying an
    :class:`repro.control.AutoscalePolicy` drives ``n_replicas`` live
    through the drain-before-retire ``scale_to()`` transition — scale-out
    when the windowed p99 breaches, scale-in with hysteresis and cooldowns
    once the tail goes calm.  Every run (static and reactive) shares the
    same knob-tuning controller against the same SLO, so membership is the
    only thing that differs; every admitted answer is verified against the
    binary-lifting oracle, scaling included.

    Runs are scored by :func:`score_run` on replica-seconds *alive* per
    answered query.  The headline ``reactive_vs_best_static`` is ``best static
    score / reactive score`` — above 1.0 means no fixed fleet size matches
    reacting.  Asserted besides: the reactive run meets the SLO, and the
    scaling story itself — a scale-out decision during the flash phase, a
    scale-in after it, and a final replica count back at the policy floor.
    """
    rows = [autoscale_row(f"static-{n}", n, reactive=False) for n in STATIC_REPLICAS]
    reactive_row = autoscale_row(
        "reactive", AUTOSCALE_POLICY.min_replicas, reactive=True
    )
    rows.append(reactive_row)

    statics = [r for r in rows if r is not reactive_row]
    best_static = min(statics, key=lambda r: r["score"])
    events = reactive_row["scale_events"]
    scale_outs = [e for e in events if e["reason"].startswith("scale-out")]
    scale_ins = [e for e in events if e["reason"] == "scale-in"]
    headline = {
        "reactive_vs_best_static": best_static["score"] / reactive_row["score"],
        "best_static_config": best_static["config"],
        "best_static_score": best_static["score"],
        "reactive_score": reactive_row["score"],
        "slo_violations": len(reactive_row["slo_violations"]),
        "reactive_peak_replicas": max(
            [e["n_replicas"] for e in events] or [reactive_row["final_replicas"]]
        ),
        "reactive_final_replicas": reactive_row["final_replicas"],
        "scale_out_decisions": len(scale_outs),
        "scale_in_decisions": len(scale_ins),
    }
    config = {
        "max_pending": AUTOSCALE_MAX_PENDING,
        "interval_ms": AUTOSCALE_WINDOW_S * 1e3,
        "scale": BENCH_SCALE,
        "admission_window_ms": AUTOSCALE_WINDOW_S * 1e3,
        "seed": SEED,
        "bench_scale": BENCH_SCALE,
        "calm_qps": CALM_QPS,
        "flash_qps": FLASH_QPS,
        "device": EDGE_SPEC.name,
        "static_replicas": list(STATIC_REPLICAS),
        "slo": AUTOSCALE_SLO.to_dict(),
        "policy": AUTOSCALE_POLICY.to_dict(),
    }

    policy = config["policy"]
    lines = [
        "Reactive autoscaling vs static replica counts, edge-flash",
        f"device             : {EDGE_SPEC.name} (~3.1us/query modeled)",
        f"load               : calm {CALM_QPS:g} q/s, flash {FLASH_QPS:g} "
        "q/s (~4.5 replicas' worth)",
        f"controller         : interval={config['interval_ms']:g}ms, shared "
        "knob tuning; reactive run adds the membership policy",
        f"policy             : replicas {policy['min_replicas']}.."
        f"{policy['max_replicas']}, out on window p99 > "
        f"{policy['p99_out_s'] * 1e3:g}ms, in below "
        f"{policy['p99_in_s'] * 1e3:g}ms, cooldowns "
        f"{policy['cooldown_out_s'] * 1e3:g}/"
        f"{policy['cooldown_in_s'] * 1e3:g}ms",
        f"scenario scale     : {config['scale']:g} (durations; rates fixed)",
        "score              : replica-us/query x SLO penalty (lower is better)",
        "",
        f"{'config':<12} {'repl':>9} {'shed':>7} {'p99 us':>8} "
        f"{'cost us':>8} {'penalty':>8} {'score':>9} {'SLO':>4} {'moves':>6}",
    ]
    for row in rows:
        phases = row["replicas_by_phase"]
        repl = "/".join(str(phases[p]) for p in ("calm", "flash", "recovery"))
        lines.append(
            f"{row['config']:<12} {repl:>9} "
            f"{row['shed_rate']:>6.1%} {row['latency_p99_us']:>8.1f} "
            f"{row['cost_us_per_query']:>8.2f} {row['penalty']:>8.2f} "
            f"{row['score']:>9.2f} {'ok' if row['slo_met'] else 'VIOL':>4} "
            f"{row['membership_decisions'] or '-':>6}"
        )
    lines.append("")
    lines.append(
        f"best static {headline['best_static_config']} scores "
        f"{headline['best_static_score']:.2f}, reactive "
        f"{headline['reactive_score']:.2f} -> ratio "
        f"{headline['reactive_vs_best_static']:.2f} "
        "(>1 = reacting beats every fixed fleet)"
    )

    # The flash phase spans [calm, calm + flash) on the scenario clock.
    flash_start = EDGE_FLASH.phases[0].duration_s
    flash_end = flash_start + EDGE_FLASH.phases[1].duration_s
    failures = []
    if not reactive_row["slo_met"]:
        failures.append(f"reactive violated the SLO: {slo_breach(reactive_row)}")
    if headline["reactive_vs_best_static"] <= 1.0:
        failures.append(
            "reactive did not beat the best static fleet "
            f"({best_static['config']}, ratio "
            f"{headline['reactive_vs_best_static']:.2f})"
        )
    if not any(
        flash_start <= e["at_s"] <= flash_end + AUTOSCALE_WINDOW_S for e in scale_outs
    ):
        failures.append(
            "no scale-out decision landed during the flash phase "
            f"[{flash_start:g}, {flash_end:g}]s"
        )
    if not any(e["at_s"] > flash_end for e in scale_ins):
        failures.append("no scale-in decision after the flash phase")
    if headline["reactive_final_replicas"] != AUTOSCALE_POLICY.min_replicas:
        failures.append(
            "reactive did not return to the policy floor: ended at "
            f"{headline['reactive_final_replicas']} replicas"
        )
    return SuiteRun(
        {"config": config, "rows": rows, "headline": headline},
        "\n".join(lines),
        failures,
        "reactive met the SLO, beat every static fleet "
        f"{headline['reactive_vs_best_static']:.2f}x, scaled out on the "
        "ramp and back in after",
    )


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
BACKENDS_REPLICAS = 4
BACKENDS_MAX_PENDING = 32768
BACKENDS_MAX_BATCH = 1024
BACKENDS_MAX_WAIT_S = 4e-4

#: Reference profile: two *modeled prices* for two backends, committed so the
#: dispatch comparison is bit-deterministic (see docs/backends.md).  They are
#: not measurements of two host kernels: the host has one query kernel, and a
#: live calibration writes its one fitted line under both keys.  ``smallbatch``
#: prices cheap launches, ``gpu`` cheap queries — the paper's CPU/GPU
#: trade-off as two cost lines.
REFERENCE_PROFILE = CalibrationProfile(
    entries={
        "smallbatch": BackendCalibration(
            backend="smallbatch",
            launch_overhead_s=9.52e-6,
            per_query_s=2.606e-7,
            min_batch=1,
            max_batch=1024,
            samples=11,
            residual=0.0,
        ),
        "gpu": BackendCalibration(
            backend="gpu",
            launch_overhead_s=7.574e-5,
            per_query_s=8.66e-8,
            min_batch=1,
            max_batch=1024,
            samples=11,
            residual=0.0,
        ),
    },
    meta={"source": "reference (dev container)", "n_nodes": 4096, "seed": 0},
)

#: The three cluster configurations under comparison.
BACKENDS_CONFIGS = (
    ("static-small", ("smallbatch",)),
    ("static-gpu", ("gpu",)),
    ("calibrated", ("smallbatch", "gpu")),
)

#: Declared objectives.  Bounds are on profile-charged (measured-cost)
#: latencies, so they differ from the modeled-time SLOs of the other suites.
#: The flash phase offers far more than sustainable load; the shed bound
#: caps whole-trace loss while admission control absorbs the spike.
BACKENDS_SLOS = {
    "steady": {"p99_latency_s": 5e-4, "max_shed_rate": 1e-3},
    "flash-crowd": {"p99_latency_s": 1e-3, "max_shed_rate": 0.75},
}

CALIBRATION_GRID = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def backends_row(scenario_name, label, backend_keys) -> dict:
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=BACKENDS_REPLICAS,
            max_batch_size=BACKENDS_MAX_BATCH,
            max_wait_s=BACKENDS_MAX_WAIT_S,
            max_pending=BACKENDS_MAX_PENDING,
            backends=backend_keys,
        ),
        dispatcher_factory=lambda: dispatcher_for(
            backend_keys, profile=REFERENCE_PROFILE
        ),
    )
    report = replay(
        cluster,
        make_scenario(scenario_name, scale=BENCH_SCALE, seed=SEED),
        admission_window_s=ADMISSION_WINDOW_S,
        check_answers=True,
    )
    backend_counts: Dict[str, int] = {}
    for replica in cluster.replicas:
        for key, count in replica.stats().backend_choices.items():
            backend_counts[key] = backend_counts.get(key, 0) + count
    return {
        "scenario": scenario_name,
        "config": label,
        "backends": list(backend_keys),
        **traffic_columns(report),
        "batches_by_backend": backend_counts,
        **score_run(
            report, SLO(**BACKENDS_SLOS[scenario_name]), report.stats.busy_time_s
        ),
    }


def live_calibration() -> dict:
    """Measure this host's query kernel; report the fitted lines (one line,
    written under both keys) and their crossover (none when they are equal)."""
    start = time.perf_counter()
    profile = calibrate_backends(
        ("smallbatch", "gpu"),
        batch_sizes=CALIBRATION_GRID,
        repeats=3,
        warmup=1,
        n_nodes=1024,
        seed=SEED,
    )
    wall_s = time.perf_counter() - start
    dispatcher = dispatcher_for(("smallbatch", "gpu"), profile=profile)
    return {
        "kind": "host",
        "wall_s": wall_s,
        "crossover_batch_size": dispatcher.crossover_batch_size(
            max_batch=max(CALIBRATION_GRID)
        ),
        "backends": {
            key: {
                "launch_overhead_us": cal.launch_overhead_s * 1e6,
                "per_query_ns": cal.per_query_s * 1e9,
                "residual": cal.residual,
            }
            for key, cal in sorted(profile.entries.items())
        },
    }


def backends() -> SuiteRun:
    """Calibrated dispatch vs static backends, on the reference profile's prices.

    The paper's Fig. 6 crossover was *modeled*: hardcoded GTX980/Xeon specs
    priced every batch.  This suite exercises the measured path end to end:

    1. **Live calibration** — :func:`repro.backends.calibrate_backends` times
       the one host query kernel (which ``smallbatch`` and ``gpu`` both run)
       across a batch-size grid and fits one launch-overhead + per-query cost
       line, written under both keys.  The lines (equal, so no crossover) are
       reported under ``live_calibration``, stamped ``"kind": "host"`` and
       *not* gated — wall-clock numbers move with the machine.
    2. **Dispatch comparison** — the committed ``REFERENCE_PROFILE`` drives
       three cluster configurations over the steady and flash-crowd scenarios:
       two *static* single-backend clusters and one *calibrated* cluster that
       dispatches each batch to the profile-argmin backend.  Every admitted
       answer is verified against the binary-lifting oracle.  Charges come
       from the fixed profile on the simulated clock, so these rows are
       bit-deterministic.

    Runs are scored by :func:`score_run` on profile-charged backend-busy
    seconds per answered query.  The headline ``calibrated_vs_best_static``
    is the worst-case ratio of the best static score to the calibrated score
    over both scenarios.  Asserted: it is at least 1 up to rounding, and the
    calibrated run meets every declared SLO.
    """
    live = live_calibration()
    rows = [
        backends_row(name, label, backend_keys)
        for name in sorted(BACKENDS_SLOS)
        for label, backend_keys in BACKENDS_CONFIGS
    ]
    ratios = best_static_ratios(rows, "calibrated")
    calibrated_rows = [r for r in rows if r["config"] == "calibrated"]
    headline = {
        "calibrated_vs_best_static": min(e["ratio"] for e in ratios.values()),
        "calibrated_slo_violations": sum(
            len(r["slo_violations"]) for r in calibrated_rows
        ),
        "scenarios_run": len(ratios),
        "calibrated_steady_cost_us": cell(calibrated_rows, scenario="steady")[
            "cost_us_per_query"
        ],
    }
    config = {
        "replicas": BACKENDS_REPLICAS,
        "max_pending": BACKENDS_MAX_PENDING,
        "max_batch": BACKENDS_MAX_BATCH,
        "max_wait_us": BACKENDS_MAX_WAIT_S * 1e6,
        "scale": BENCH_SCALE,
        "seed": SEED,
        "bench_scale": BENCH_SCALE,
        "admission_window_ms": ADMISSION_WINDOW_S * 1e3,
        "profile_source": "committed reference (bit-deterministic)",
        "reference_profile": REFERENCE_PROFILE.to_dict(),
        "slos": BACKENDS_SLOS,
    }

    cross = live["crossover_batch_size"]
    lines = [
        "Calibrated dispatch vs static backends (reference-profile prices)",
        f"replicas           : {config['replicas']} "
        f"(max_pending={config['max_pending']})",
        f"batching           : max_batch={config['max_batch']}, "
        f"max_wait={config['max_wait_us']:g}us",
        f"scenario scale     : {config['scale']:g} (durations; rates fixed)",
        f"profile            : {config['profile_source']}",
        "score              : busy-us/query x SLO penalty (lower is better)",
        "",
        "live calibration (this host, ungated):",
    ]
    for key, fit in live["backends"].items():
        lines.append(
            f"  {key:<12} launch {fit['launch_overhead_us']:>8.2f}us  "
            f"+ {fit['per_query_ns']:>8.2f}ns/query"
        )
    # Both keys run the one host kernel, so their lines are equal and no
    # batch size flips the choice; say so.
    lines.append(
        "  measured crossover : "
        f"{cross if cross is not None else 'none in grid (one host kernel)'}"
    )
    lines.append("")
    lines.append(
        f"{'scenario':<14} {'config':<14} {'shed':>7} {'p99 us':>9} "
        f"{'cost us':>8} {'penalty':>8} {'score':>9} {'SLO':>4}  batches"
    )
    for row in rows:
        by_backend = ", ".join(
            f"{k}:{v}" for k, v in sorted(row["batches_by_backend"].items())
        )
        lines.append(
            f"{row['scenario']:<14} {row['config']:<14} "
            f"{row['shed_rate']:>6.1%} {row['latency_p99_us']:>9.1f} "
            f"{row['cost_us_per_query']:>8.3f} {row['penalty']:>8.2f} "
            f"{row['score']:>9.3f} {'ok' if row['slo_met'] else 'VIOL':>4}  "
            f"{by_backend}"
        )
    lines.append("")
    lines.append(
        f"{'scenario':<14} {'best static':>12} {'calibrated':>11} {'ratio':>7}"
        "  (best_static_score / calibrated_score; >= 1 = match-or-beat)"
    )
    for name, entry in ratios.items():
        lines.append(
            f"{name:<14} {entry['best_static_score']:>12.3f} "
            f"{entry['calibrated_score']:>11.3f} {entry['ratio']:>7.3f}"
        )

    failures = []
    if headline["scenarios_run"] != len(BACKENDS_SLOS):
        failures.append(
            f"expected {len(BACKENDS_SLOS)} scenarios, "
            f"ran {headline['scenarios_run']}"
        )
    # The calibrated dispatcher argmins over the very profile the
    # statics are charged with, so match-or-beat is by construction;
    # the epsilon absorbs float rounding in the score division.
    if headline["calibrated_vs_best_static"] < 0.999:
        worst = min(ratios, key=lambda n: ratios[n]["ratio"])
        failures.append(
            "calibrated dispatch lost to the best static backend on "
            f"{worst} (ratio {ratios[worst]['ratio']:.3f})"
        )
    for row in calibrated_rows:
        if not row["slo_met"]:
            failures.append(
                "calibrated run violated its SLO on "
                f"{row['scenario']}: {slo_breach(row)}"
            )
    return SuiteRun(
        {
            "config": config,
            "live_calibration": live,
            "rows": rows,
            "ratios": ratios,
            "headline": headline,
        },
        "\n".join(lines),
        failures,
        "calibrated dispatch matched or beat the best static backend "
        f"({headline['calibrated_vs_best_static']:.3f}x) and met every declared SLO",
    )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
SUITES: Dict[str, Callable[[], SuiteRun]] = {
    suite.__name__: suite
    for suite in (cluster_scaling, scenarios, chaos, adaptive, autoscale, backends)
}


def json_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def regenerate(name: str):
    """Run suite ``name``: its :class:`SuiteRun` and the envelope around it."""
    start = time.perf_counter()
    run = SUITES[name]()
    payload = {
        "benchmark": name,
        "kind": "modeled",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_s": time.perf_counter() - start,
        **run.body,
    }
    # What a reader of the file would get back: tuples are lists by then.
    return run, json.loads(json.dumps(payload))


def first_difference(committed, fresh) -> Optional[str]:
    """The first dotted path at which two payloads differ, or ``None``.

    Every key outside ``VOLATILE`` must be present on both sides with an
    equal value of the same JSON type.  Floats may differ by
    ``NUMPY_DRIFT_RTOL`` — and ``machine.numpy`` itself — only when the two
    payloads were produced under different NumPy releases.
    """
    same_numpy = committed["machine"]["numpy"] == fresh["machine"]["numpy"]
    skipped = VOLATILE if same_numpy else (*VOLATILE, "machine.numpy")
    rtol = 0.0 if same_numpy else NUMPY_DRIFT_RTOL

    def walk(old, new, path):
        if isinstance(old, dict) and isinstance(new, dict):
            for key in [*old, *(k for k in new if k not in old)]:
                where = f"{path}.{key}" if path else key
                if where in skipped:
                    continue
                if key not in new:
                    return f"{where}: committed, but not regenerated"
                if key not in old:
                    return f"{where}: regenerated, but not committed"
                difference = walk(old[key], new[key], where)
                if difference:
                    return difference
            return None
        if isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                return f"{path}: {len(old)} items committed, {len(new)} regenerated"
            for i, (a, b) in enumerate(zip(old, new)):
                difference = walk(a, b, f"{path}.{i}")
                if difference:
                    return difference
            return None
        equal = type(old) is type(new) and (
            old == new
            or (isinstance(old, float) and math.isclose(old, new, rel_tol=rtol))
        )
        return None if equal else f"{path}: committed {old!r}, regenerated {new!r}"

    return walk(committed, fresh, "")


def check(name: str, payload: dict) -> Optional[str]:
    """Where ``payload`` departs from the committed ``BENCH_<name>.json``."""
    committed = json.loads(json_path(name).read_text(encoding="utf-8"))
    return first_difference(committed, payload)


def write(name: str, run: SuiteRun, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    table_path = RESULTS_DIR / f"{name}.txt"
    table_path.write_text(run.table + "\n", encoding="utf-8")
    json_path(name).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {json_path(name)} and {table_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all of {', '.join(SUITES)})",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every regenerated payload equals its "
        "committed BENCH_<suite>.json outside the volatile keys; writes nothing",
    )
    mode.add_argument(
        "--write",
        action="store_true",
        help="rewrite BENCH_<suite>.json and results/<suite>.txt",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    gated = args.check or args.write
    if gated and BENCH_SCALE != 1.0:
        parser.error(
            f"REPRO_BENCH_SCALE={BENCH_SCALE:g}: the committed baselines are "
            "scale-1 runs, so a scaled run is neither compared with them nor "
            "written over them — unset REPRO_BENCH_SCALE (a scaled run may print)"
        )

    status = 0
    for name in args.suites or SUITES:
        run, payload = regenerate(name)
        print(f"\n=== {name} ({payload['wall_s']:.1f}s) ===\n{run.table}\n")
        failures = list(run.failures)
        if args.check:
            difference = check(name, payload)
            if difference:
                failures.append(f"{json_path(name).name} differs at {difference}")
        for failure in failures:
            print(f"{'FAIL' if gated else 'note'} [{name}]: {failure}", file=sys.stderr)
        if failures:
            if gated:
                status = 1
            continue
        print(f"ok [{name}]: {run.verdict}")
        if args.check:
            print(f"ok [{name}]: equal to the committed {json_path(name).name}")
        if args.write:
            write(name, run, payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
