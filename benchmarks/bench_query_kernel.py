#!/usr/bin/env python
"""Query-kernel microbenchmark: host ns per query of ``InlabelLCA.query``.

Times the vectorized Inlabel kernel in isolation on the ``bulk-query`` tree of
the layer benchmark (262,144 nodes, shallow) at six batch sizes:

* **41**        — a micro-batch of ``serve-columnar`` (launch-bound: the cost
  is ~20 NumPy calls, not bytes);
* **1,024** and **65,536** — the small and middle points of the Fig. 6 sweep;
  65,536 lanes is two tiles of the kernel's driver, the fewest that its
  threads share;
* **262,144**, **1,048,576**, **4,194,304** — 8, 32 and 128 tiles: past the
  tile width the curve should stay flat, the way the paper's GPU curve does.

Tiles run side by side on one thread per core of the process's affinity
mask, so compare commits on the same mask (``taskset -c 0`` times the
one-thread loop).

Per size it reports the median and minimum ns per query over distinct windows
of one uniform query stream, and, for the largest call, how far it lifts the
process's resident set above where the call started: its answers plus its
temporaries (Linux only — the high-water mark is reset through
``/proc/self/clear_refs`` first; elsewhere the line reads ``n/a``).

This is **host wall-clock** time of this Python process, not modeled device
time, and a loop over one warm index flatters every number: use it to compare
two commits (alternate them — the medians swing with the box's gear), and
claim end-to-end gains through ``benchmarks/layers/run.py`` only.

Run with:  python benchmarks/bench_query_kernel.py
Options:   --nodes N  --repeats R  --seed S  --smoke

``--smoke`` times nothing: it answers batches that end just before, on and
just after a tile boundary (and one of several tiles plus a remainder) on a
small tree and checks every answer against ``BinaryLiftingLCA``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA, InlabelLCA
from repro.lca.inlabel import _TILE_LANES as TILE  # the kernel's tile width
from repro.lca.inlabel import _WORKERS  # threads that share a batch's tiles

from bench_util import RESULTS_DIR

SIZES = (41, 1_024, 65_536, 262_144, 1_048_576, 4_194_304)


def status_mib(field: str) -> float:
    """``VmRSS`` / ``VmHWM`` of this process from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no {field} in /proc/self/status")


def peak_rss_rise_mib(call) -> Optional[float]:
    """MiB by which ``call()`` lifts RSS above its starting point, or ``None``.

    The process's high-water mark already holds the index build, so it is
    reset first; that needs Linux's ``/proc/self/clear_refs``.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
            clear_refs.write("5")
        start = status_mib("VmRSS")
        call()
        return status_mib("VmHWM") - start
    except OSError:
        return None


def time_size(lca: InlabelLCA, xs: np.ndarray, ys: np.ndarray, size: int,
              repeats: int) -> dict:
    """Median / minimum ns per query at one batch size."""
    clock = time.perf_counter
    # Enough calls to time, few enough that the largest size stays seconds.
    calls = max(3, min(repeats * 40, repeats * (1 << 20) // size))
    span = xs.size - size + 1
    samples = []
    for r in range(calls):
        lo = (r * size) % span
        x, y = xs[lo : lo + size], ys[lo : lo + size]
        t0 = clock()
        out = lca.query(x, y)
        samples.append(clock() - t0)
        assert out.size == size
    samples = np.asarray(samples)
    return {
        "lanes": size,
        "median_ns": float(np.median(samples)) / size * 1e9,
        "min_ns": float(samples.min()) / size * 1e9,
        "median_us_per_call": float(np.median(samples)) * 1e6,
        "calls": calls,
    }


def render_table(nodes: int, rows, rss_rise_mib: Optional[float]) -> str:
    lines = [
        "Inlabel query kernel: host ns per query of InlabelLCA.query, "
        f"{nodes:,}-node shallow tree, tile {TILE:,} lanes, {_WORKERS} worker(s)",
        "",
        f"{'lanes':>10} {'tiles':>6} {'median ns/q':>12} {'min ns/q':>10} "
        f"{'median us/call':>15} {'calls':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['lanes']:>10,} {-(-row['lanes'] // TILE):>6} "
            f"{row['median_ns']:>12.1f} {row['min_ns']:>10.1f} "
            f"{row['median_us_per_call']:>15.1f} {row['calls']:>6}"
        )
    rise = "n/a" if rss_rise_mib is None else f"{rss_rise_mib:.1f} MiB"
    lines += [
        "",
        f"peak RSS rise of one {rows[-1]['lanes']:,}-lane call: {rise} "
        f"(its answers alone are {rows[-1]['lanes'] * 8 / 2**20:.0f} MiB)",
    ]
    return "\n".join(lines)


def smoke(seed: int) -> int:
    """Check answers across a tile boundary against the oracle; time nothing."""
    n = 2_048
    checked = 0
    for kind, parents in (
        ("shallow", random_attachment_tree(n, seed=seed)),
        ("path", np.arange(-1, n - 1, dtype=np.int64)),
    ):
        xs, ys = generate_random_queries(n, 3 * TILE + 7, seed=seed + 1)
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        lca = InlabelLCA(parents)
        for size in (TILE - 1, TILE, TILE + 1, 3 * TILE + 7):
            out = lca.query(xs[:size], ys[:size])
            assert out.dtype == np.int64 and out.shape == (size,)
            assert np.array_equal(out, expected[:size]), f"{kind}: {size} lanes disagree"
            checked += size
    print(f"query-kernel smoke: {checked} answers across the {TILE}-lane tile "
          "boundary agree with BinaryLiftingLCA")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=262_144)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per size, times up to 40 at small sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check answers against BinaryLiftingLCA, time nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    lca = InlabelLCA(random_attachment_tree(args.nodes, seed=args.seed))
    xs, ys = generate_random_queries(args.nodes, max(SIZES), seed=args.seed + 1)
    rss_rise = peak_rss_rise_mib(lambda: lca.query(xs, ys))
    rows = [time_size(lca, xs, ys, size, args.repeats) for size in SIZES]
    table = render_table(args.nodes, rows, rss_rise)
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "query_kernel.txt").write_text(table + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
