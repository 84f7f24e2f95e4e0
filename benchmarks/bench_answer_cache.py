#!/usr/bin/env python
"""Answer-cache microbenchmark: host µs per ``lookup`` and per ``insert``.

Times the two public operations of :class:`repro.service.AnswerCache` in
isolation, on a 4 MiB table (262,144 slots) prefilled to load ≈ 0.2, at the
four call sizes the serving layer produces:

* **41**     — a one-batch span: a drain tail, row-wise traffic, a run too
  big for the cache's headroom (launch-bound: the cost is NumPy calls, not
  bytes);
* **640**    — a front-door block of ``serve-cache-skew`` (the all-hit path);
* **1,000**  — a span of ``serve-cache-uniform``: the ~24 batches one
  front-door block flushes, probed and inserted in one call each;
* **65,536** — a bulk batch (bandwidth-bound: lanes must keep compacting).

Per size it reports the median µs of an all-miss ``lookup`` (keys absent from
the table), an all-hit ``lookup`` (keys drawn from the prefill) and an
``insert`` of distinct absent keys.  Inserts mutate the table, so each timed
round prefills a fresh cache and times a run of distinct batches small enough
to leave the load near 0.2.

This is **host wall-clock** time of this Python process, not modeled device
time, and a loop over one warm table flatters every number (no page faults,
hot caches): use it to compare two commits, and claim end-to-end gains
through ``benchmarks/layers/run.py`` only.

Run with:  python benchmarks/bench_answer_cache.py
Options:   --cache-bytes N  --load F  --repeats R  --seed S  --smoke

``--smoke`` times nothing: it drives the same sizes (capped at 4,096 keys)
through ``insert`` / ``lookup`` and checks every answer against a ``dict``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.service import AnswerCache

from bench_util import RESULTS_DIR

SIZES = (41, 640, 1_000, 65_536)
SPACE = 0


def distinct_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct uint64 keys shaped like packed pairs (ids < 2^18)."""
    keys = np.empty(0, dtype=np.uint64)
    while keys.size < count:
        xs = rng.integers(0, 1 << 18, size=2 * count).astype(np.uint64)
        ys = rng.integers(0, 1 << 18, size=2 * count).astype(np.uint64)
        keys = np.unique(np.concatenate([keys, (xs << np.uint64(32)) | ys]))
    return rng.permutation(keys)[:count]


def answers_for(keys: np.ndarray) -> np.ndarray:
    """A deterministic 31-bit stand-in answer per key."""
    return ((keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)).astype(np.int64)


def prefilled(cache_bytes: int, resident: np.ndarray, seed: int) -> AnswerCache:
    cache = AnswerCache(cache_bytes, seed=seed)
    for lo in range(0, resident.size, 4096):
        chunk = resident[lo : lo + 4096]
        cache.insert(SPACE, chunk, answers_for(chunk))
    assert cache.resets == 0
    return cache


def median_us(samples) -> float:
    return float(np.median(samples)) * 1e6


def time_size(cache_bytes: int, seed: int, resident: np.ndarray,
              absent: np.ndarray, size: int, repeats: int) -> dict:
    """Median µs of lookup (miss / hit) and insert at one batch size."""
    clock = time.perf_counter
    base = prefilled(cache_bytes, resident, seed)
    # Distinct batches per round: enough calls to time, few enough keys that
    # an insert run moves the load by < 0.05.
    per_round = max(1, min(200, 12_800 // size))
    # A hit batch larger than the prefill wraps around it (lookups accept
    # repeated keys); miss / insert batches are distinct absent keys.
    hit_batches = [
        resident.take(np.arange(i * size, (i + 1) * size), mode="wrap")
        for i in range(per_round)
    ]
    miss_batches = [absent[i * size : (i + 1) * size] for i in range(per_round)]
    values = [answers_for(b) for b in miss_batches]
    miss_s, hit_s, insert_s = [], [], []
    for _ in range(repeats):
        for batch in miss_batches:
            t0 = clock()
            _, _, hits = base.lookup(SPACE, batch)
            miss_s.append(clock() - t0)
            assert hits == 0
        for batch in hit_batches:
            t0 = clock()
            _, _, hits = base.lookup(SPACE, batch)
            hit_s.append(clock() - t0)
            assert hits == size
        cache = prefilled(cache_bytes, resident, seed)
        for batch, vals in zip(miss_batches, values):
            t0 = clock()
            cache.insert(SPACE, batch, vals)
            insert_s.append(clock() - t0)
        assert cache.resets == 0
    return {
        "keys": size,
        "lookup_miss_us": median_us(miss_s),
        "lookup_hit_us": median_us(hit_s),
        "insert_us": median_us(insert_s),
        "calls": len(insert_s),
    }


def render_table(cache_bytes: int, load: float, rows) -> str:
    lines = [
        "Answer cache: host µs per call (median), "
        f"{cache_bytes:,}-byte table, load {load:.2f}",
        "",
        f"{'keys':>8} {'lookup miss':>12} {'lookup hit':>11} {'insert':>10} "
        f"{'miss+insert':>12} {'calls':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['keys']:>8} {row['lookup_miss_us']:>12.1f} "
            f"{row['lookup_hit_us']:>11.1f} {row['insert_us']:>10.1f} "
            f"{row['lookup_miss_us'] + row['insert_us']:>12.1f} {row['calls']:>6}"
        )
    return "\n".join(lines)


def smoke(seed: int) -> int:
    """Check answers against a dict at every size; time nothing.

    Runs on a 128 KiB table, so the 4,096-key rounds cross the load bound and
    the epoch reset is exercised too.
    """
    rng = np.random.default_rng(seed)
    cache = AnswerCache(128 << 10, seed=seed)
    max_used = int(cache.slots * 0.7)
    model: dict = {}
    checked = 0
    for size in SIZES:
        size = min(size, 4096)
        for _ in range(3):
            keys = distinct_keys(rng, size)
            # Probe fresh and resident keys together, repeats included.
            known = np.fromiter(model, dtype=np.uint64, count=len(model))
            probe = np.concatenate([keys, known[:size], keys[: size // 2]])
            values, found, hits = cache.lookup(SPACE, probe)
            want = np.array([k in model for k in probe.tolist()])
            assert np.array_equal(found, want), "found mask disagrees with the dict"
            assert hits == int(want.sum())
            expect = [model[k] for k in probe[want].tolist()]
            assert values[found].tolist() == expect, "cached answer disagrees"
            fresh = np.unique(probe[~found])
            if len(model) + fresh.size > max_used:
                model.clear()
            cache.insert(SPACE, fresh, answers_for(fresh))
            model.update(zip(fresh.tolist(), answers_for(fresh).tolist()))
            assert cache.used == len(model)
            checked += int(probe.size)
    known = np.fromiter(model, dtype=np.uint64, count=len(model))
    values, found, hits = cache.lookup(SPACE, known)
    assert hits == len(model) and values.tolist() == list(model.values())
    assert cache.resets > 0
    print(
        f"answer-cache smoke: {checked} probes agree with the dict model "
        f"({cache.resets} resets)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-bytes", type=int, default=4 << 20)
    parser.add_argument("--load", type=float, default=0.2,
                        help="prefill occupancy of the timed table")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed rounds per size (each a run of batches)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check answers against a dict, time nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    rng = np.random.default_rng(args.seed)
    slots = AnswerCache(args.cache_bytes).slots
    n_resident = int(slots * args.load)
    keys = distinct_keys(rng, n_resident + max(SIZES) + 200 * 41)
    resident, absent = keys[:n_resident], keys[n_resident:]
    rows = [
        time_size(args.cache_bytes, args.seed, resident, absent, size, args.repeats)
        for size in SIZES
    ]
    table = render_table(args.cache_bytes, args.load, rows)
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "answer_cache.txt").write_text(table + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
