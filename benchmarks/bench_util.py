"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper:

* the *measured wall time* of running the experiment in this simulation is
  captured by pytest-benchmark (each experiment runs exactly once — these are
  experiment drivers, not micro-benchmarks);
* the *modeled device times* — the numbers that correspond to what the paper
  plots — are rendered as text tables, printed, written to ``results/`` and
  attached to the benchmark's ``extra_info`` so they survive into the
  pytest-benchmark JSON output.

Scale note: dataset and tree sizes default to roughly 32–64× smaller than the
paper's (see README.md, "Tests and benchmarks"); set the environment variables
``REPRO_BENCH_SCALE`` (LCA tree sizes) and ``REPRO_DATASET_SCALE`` (bridge
datasets) to run larger instances.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence

#: Directory where rendered result tables are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Multiplier applied to the default LCA tree sizes in the benchmarks.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Default LCA tree sizes used by the figure benchmarks (paper: 1M–32M).
LCA_SIZES: Sequence[int] = tuple(
    int(n * BENCH_SCALE) for n in (32_768, 65_536, 131_072, 262_144)
)


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The experiments are deterministic and take seconds, so a single round is
    both sufficient and necessary to keep the whole suite fast.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)


def publish(benchmark, name: str, text: str) -> None:
    """Print a rendered result table, persist it, and attach it to the report."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    benchmark.extra_info["result_table"] = text
    benchmark.extra_info["result_file"] = str(path)
    print(f"\n=== {name} ===\n{text}\n")
