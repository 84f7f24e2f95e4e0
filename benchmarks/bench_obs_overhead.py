#!/usr/bin/env python
"""Observability overhead: tracing off vs 1-in-N sampled vs full capture.

With no recorder attached, every ``repro.obs`` hook in the serving stack is
a single ``is None`` check; with a 1-in-N sampling recorder, tracing must
cost only a few percent of the wall-clock throughput, cheap enough to leave
on.  This benchmark prices both on one ``submit_many -> drain -> results``
harness (:func:`~repro.experiments.service_experiments.wallclock_serve_run`),
in three modes over one identical stream:

* ``off``     — no observer attached (the default serving configuration);
* ``sampled`` — a :class:`~repro.obs.events.TraceRecorder` with 1-in-N
  per-query sampling (always-on production tracing);
* ``full``    — an unsampled recorder capturing every lifecycle event.

Outputs:

* ``BENCH_obs_overhead.json`` (repo root) — machine-readable result,
  gated in CI against the committed baseline via ``check_regression.py``
  (``headline.off_wall_qps`` with the loose host-ratio floor, and
  ``headline.sampled_retention`` which is a within-run ratio and therefore
  tight);
* ``results/obs_overhead.txt`` — the rendered comparison table.

Run with:  python benchmarks/bench_obs_overhead.py
Options:   --queries N  --nodes N  --repeats R  --sample N
           --max-sampled-overhead PCT  --check
Scale:     REPRO_BENCH_SCALE scales the default stream size.

With ``--check`` the process exits non-zero when sampled tracing costs more
than ``--max-sampled-overhead`` percent of the tracing-off throughput
(default 5%) — the in-process assertion behind the "sampled tracing is
cheap enough to leave on" claim.
"""

from __future__ import annotations

import argparse
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

from repro.experiments.service_experiments import wallclock_serve_run
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.obs import TraceRecorder
from repro.service import BatchPolicy

from bench_util import BENCH_SCALE, RESULTS_DIR

JSON_PATH = REPO_ROOT / "BENCH_obs_overhead.json"


MODES = ("off", "sampled", "full")


def measure_all(sample: int, parents, xs, ys, arrivals, policy, *,
                repeats: int):
    """Paired rounds: each round runs all three modes back to back.

    The overhead being priced is a couple of percent — the same order as
    host drift between runs seconds apart, and it is *additive* — jitter
    makes a run slower, never faster.  Defenses: the modes are cycled
    *within* each round with the cycle order rotating between rounds (so
    no mode always runs first on colder caches), and retention is the
    **ratio of best (minimum) wall times** across all rounds — the
    minimum converges on the true cost as rounds accumulate, so the
    ratio of minima converges on the true retention.  A fresh recorder
    per repeat keeps the capture honest (no pre-grown journals).

    Returns ``(rows, retention)`` — one result row per mode (best run,
    annotated with mode and event count) and the per-mode retention.
    """
    best = {}
    events = dict.fromkeys(MODES, 0)
    walls = {mode: [] for mode in MODES}
    for rnd in range(repeats):
        # Rotate the order each round so no mode systematically runs
        # first (the first run of a round sees colder caches).
        order = MODES[rnd % 3:] + MODES[:rnd % 3]
        for mode in order:
            recorder = None
            if mode == "sampled":
                recorder = TraceRecorder(sample=sample)
            elif mode == "full":
                recorder = TraceRecorder()
            row = wallclock_serve_run(parents, xs, ys, arrivals, policy,
                                      observer=recorder)
            walls[mode].append(row["wall_s"])
            if mode not in best or row["wall_qps"] > best[mode]["wall_qps"]:
                best[mode] = row
            if recorder is not None:
                events[mode] = recorder.n_events
    rows = []
    for mode in MODES:
        row = dict(best[mode])
        row["tracing"] = mode
        row["events"] = int(events[mode])
        rows.append(row)
    off_floor = min(walls["off"])
    retention = {mode: off_floor / min(walls[mode]) for mode in MODES}
    return rows, retention


def render_table(config, rows, retention) -> str:
    lines = [
        "Observability overhead: tracing off vs sampled vs full "
        "(host wall time, identical stream)",
        f"tree nodes         : {config['nodes']}",
        f"stream length      : {config['queries']} queries at "
        f"{config['offered_qps']:,.0f} offered q/s",
        f"policy             : batch<={config['max_batch_size']}, "
        f"wait<={config['max_wait_s'] * 1e6:.0f}us",
        f"sampling           : 1-in-{config['sample']} tickets",
        f"rounds             : {config['repeats']} (rotated interleaving; "
        "retention from best wall per mode)",
        "",
        f"{'tracing':<10} {'wall s':>10} {'wall q/s':>14} {'events':>9} "
        f"{'retention':>10} {'overhead':>9}",
    ]
    for row in rows:
        kept = retention[row["tracing"]]
        lines.append(
            f"{row['tracing']:<10} {row['wall_s']:>10.4f} "
            f"{row['wall_qps']:>14,.0f} {row['events']:>9} "
            f"{kept:>9.1%} {(1.0 - kept):>8.1%}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int,
                        default=max(1000, int(100_000 * BENCH_SCALE)),
                        help="stream length (default: 100k * REPRO_BENCH_SCALE)")
    parser.add_argument("--nodes", type=int,
                        default=max(1024, int(65_536 * BENCH_SCALE)),
                        help="tree size (default: 65536 * REPRO_BENCH_SCALE)")
    parser.add_argument("--repeats", type=int, default=12,
                        help="interleaved wall-clock rounds (best per mode)")
    parser.add_argument("--sample", type=int, default=64,
                        help="keep 1-in-N per-query events in sampled mode")
    parser.add_argument("--max-batch", type=int, default=1024)
    parser.add_argument("--max-wait-us", type=float, default=200.0)
    parser.add_argument("--rate-qps", type=float, default=5e6,
                        help="offered (simulated) arrival rate")
    parser.add_argument("--max-sampled-overhead", type=float, default=5.0,
                        help="with --check: max percent of throughput that "
                             "sampled tracing may cost")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when sampled tracing overhead "
                             "exceeds --max-sampled-overhead percent")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    parents = random_attachment_tree(args.nodes, seed=args.seed)
    xs, ys = generate_random_queries(args.nodes, args.queries,
                                     seed=args.seed + 1)
    arrivals = np.arange(args.queries, dtype=np.float64) / args.rate_qps
    policy = BatchPolicy(max_batch_size=args.max_batch,
                         max_wait_s=args.max_wait_us * 1e-6)
    config = {
        "nodes": args.nodes,
        "queries": args.queries,
        "offered_qps": args.rate_qps,
        "max_batch_size": args.max_batch,
        "max_wait_s": args.max_wait_us * 1e-6,
        "sample": args.sample,
        "repeats": args.repeats,
        "bench_scale": BENCH_SCALE,
        "seed": args.seed,
    }

    rows, retention = measure_all(args.sample, parents, xs, ys, arrivals,
                                  policy, repeats=args.repeats)
    off, sampled, full = rows
    sampled_retention = retention["sampled"]
    full_retention = retention["full"]

    table = render_table(config, rows, retention)
    print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs_overhead.txt").write_text(table + "\n",
                                                  encoding="utf-8")
    payload = {
        "benchmark": "obs_overhead",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": config,
        "runs": {"off": off, "sampled": sampled, "full": full},
        "headline": {
            "off_wall_qps": off["wall_qps"],
            "sampled_retention": sampled_retention,
            "sampled_overhead_pct": (1.0 - sampled_retention) * 100.0,
            "full_retention": full_retention,
            "full_overhead_pct": (1.0 - full_retention) * 100.0,
            "full_events": full["events"],
            "sampled_events": sampled["events"],
        },
        "max_sampled_overhead_pct": args.max_sampled_overhead,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    print(f"\nwrote {JSON_PATH} and {RESULTS_DIR / 'obs_overhead.txt'}")

    if args.check:
        overhead_pct = (1.0 - sampled_retention) * 100.0
        if overhead_pct > args.max_sampled_overhead:
            print(f"FAIL: sampled tracing costs {overhead_pct:.1f}% of "
                  f"tracing-off throughput (max allowed "
                  f"{args.max_sampled_overhead:.1f}%)", file=sys.stderr)
            return 1
        print(f"OK: sampled tracing costs {overhead_pct:.1f}% "
              f"(<= {args.max_sampled_overhead:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
