#!/usr/bin/env python
"""Host-bench regression gate: a fresh BENCH_*.json against its baseline.

For the *host-clock* bench ``bench_obs_overhead.py``, whose numbers move
with the runner.  CI reruns it, then compares selected metrics of the fresh
JSON against the committed baseline with a per-metric floor::

    python benchmarks/check_regression.py \\
        --current BENCH_obs_overhead.json \\
        --baseline bench-baselines/BENCH_obs_overhead.json \\
        --check headline.sampled_retention:0.80

Each ``--check PATH:MIN_RATIO`` asserts ``current >= MIN_RATIO * baseline``
for the numeric value at the dotted ``PATH`` (higher is better).  The floors
are loose because host wall-clock ratios vary across runners.  The *modeled*
suites are bit-deterministic and need no tolerance: ``modeled.py --check``
gates them by equality.

Exits non-zero if any metric regresses past its floor, printing a verdict
table either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple


def resolve(payload: dict, dotted: str) -> float:
    """The numeric value at a dotted path like ``headline.peak_qps``."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"path {dotted!r} not found (missing {part!r})")
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise TypeError(f"path {dotted!r} is not numeric: {node!r}")
    return float(node)


def parse_check(spec: str) -> Tuple[str, float]:
    path, sep, ratio = spec.rpartition(":")
    if not sep or not path:
        raise argparse.ArgumentTypeError(
            f"--check expects PATH:MIN_RATIO, got {spec!r}"
        )
    return path, float(ratio)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument(
        "--check",
        type=parse_check,
        action="append",
        required=True,
        metavar="PATH:MIN_RATIO",
        help="assert current >= MIN_RATIO * baseline at dotted PATH "
        "(repeatable)",
    )
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text(encoding="utf-8"))
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))

    failures: List[str] = []
    print(
        f"{'metric':<40} {'baseline':>14} {'current':>14} {'ratio':>7} "
        f"{'bound':>7}  verdict"
    )
    for path, bound in args.check:
        base = resolve(baseline, path)
        cur = resolve(current, path)
        if base <= 0:
            failures.append(f"{path}: baseline value {base} is not positive")
            continue
        ratio = cur / base
        ok = ratio >= bound
        print(
            f"{path:<40} {base:>14,.4g} {cur:>14,.4g} {ratio:>7.3f} "
            f">={bound:>5.3f}  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{path}: {cur:,.4g} is below {bound:.2f}x baseline "
                f"{base:,.4g} (ratio {ratio:.3f})"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
