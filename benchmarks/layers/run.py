#!/usr/bin/env python
"""Host-clock layer benchmark: eight workloads, end-to-end + per-layer metrics.

One workload, as the acceptance driver runs it (the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/layers/run.py --workload serve-columnar --seed 0 \\
        --seconds 10 --trace 0      # end-to-end metrics, tracing off
    python3 benchmarks/layers/run.py --workload serve-columnar --seed 0 \\
        --seconds 10 --trace 1      # per-layer metrics from traced passes

The whole suite, each run in its own fresh child process, written to
``benchmarks/layers/out/result-seed<N>.json`` with a provenance manifest::

    python3 benchmarks/layers/run.py --workload all [--seed N] [--smoke]

Compare two such files with the benchmark's own bounds::

    python3 benchmarks/layers/run.py --agree A.json B.json

A run is: generate inputs and oracle answers from the seed; set the system up
(construct the target, warm its index caches, one warm-up pass) three times
and keep the median; then timed passes, tracing off, until ``--seconds`` have
gone by (``gc.collect()`` before each, GC left on).  With ``--trace 1`` every
untraced pass is followed by one under the outside-in tracer of ``trace.py``.
Every pass's outputs are checked against the oracle outside the timed region;
a wrong, refused or unanswered item counts into ``failed`` and makes the
command exit non-zero.

Host-time numbers are medians over the passes of a run, never minima, and
each is printed next to its own interquartile range as a share of the median.
End-to-end times are scaled by the machine's gear at the moment, read off a
fixed yardstick next to every pass (``yardstick.py``); per-layer times are raw.
See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

_T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: ``--seconds`` when not given (also ``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10.0

SCHEMA = 1


def _bootstrap() -> None:
    """Make ``layers`` and ``repro`` importable; pin math libraries to 1 thread.

    Run as a script, ``sys.path[0]`` is this directory, whose ``trace.py``
    would shadow the standard library's ``trace``; the package's parent goes
    there instead.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = str(HERE)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path.insert(0, str(HERE.parent))
    try:
        import repro  # noqa: F401
    except ImportError:
        src = ROOT / "src"
        if not (src / "repro").is_dir():
            sys.exit(
                f"run.py: the repro package is not importable and {src} does not "
                f"hold it; run from a checkout of the repository"
            )
        sys.path.insert(1, str(src))


def _manifest(seed: int, smoke: bool) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_metrics(detail: dict) -> None:
    print(
        f"# {detail['workload']}  seed={detail['seed']}  "
        f"passes={detail['passes']}  items/pass={detail['items_per_pass']} "
        f"({detail['item']})  inputs_sha256={detail['inputs_sha256'][:16]}"
    )
    for kind in ("end_to_end", "per_layer"):
        for metric, cell in detail[kind].items():
            noise = cell.get("spread")
            tail = f"  IQR/median {noise:.3f}" if noise is not None else ""
            print(f"{metric:<34} {cell['value']:>18.6f} {cell['unit']}{tail}")
    if "raw_items_per_s" in detail:
        print(
            f"# unscaled: {detail['raw_items_per_s']:.1f} items/s at yardstick "
            f"speed {detail['yardstick_speed']:.3f} (1 = the reference box)"
        )
    print(
        f"# attempted={detail['attempted']} failed={detail['failed']} "
        f"correct={detail['correct']}"
    )
    for problem in detail["problems"]:
        print(f"# PROBLEM: {problem}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the contract's JSON object comes last."""
    from layers.measure import measure

    import_s = time.perf_counter() - _T_START
    detail = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        import_s=import_s,
        out_dir=Path(args.out),
    )
    detail["manifest"] = _manifest(args.seed, args.smoke)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    _print_metrics(detail)
    cells = detail["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": detail["correct"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in cells.items()
                },
            }
        )
    )
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# The whole suite, one fresh child process per run
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    """Both runs of every workload, each in a fresh child; one result file."""
    from layers.workloads import WORKLOADS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "schema": SCHEMA,
        "comparable": not args.smoke,
        "manifest": _manifest(args.seed, args.smoke),
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            children = []
            for trace in (0, 1):
                command = [sys.executable, str(HERE / "run.py")]
                command += ["--workload", workload.name, "--seed", str(args.seed)]
                command += ["--seconds", str(args.seconds), "--trace", str(trace)]
                command += ["--out", str(out_dir), "--detail", f"{tmp}/{trace}.json"]
                command += ["--smoke"] if args.smoke else []
                child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
                children.append(child)
                if not args.smoke:
                    # A measuring run has the machine to itself; only smoke
                    # runs, which measure nothing, may overlap.
                    child.wait()
            codes = [child.wait() for child in children]
            details = [
                json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(Path(tmp).glob("*.json"))
            ]
        status |= any(codes) or len(details) != 2
        if len(details) != 2:
            print(f"# {workload.name}: a run gave no result (exit codes {codes})")
            continue
        merged, traced = details
        merged.pop("manifest")
        merged["per_layer"] = traced["per_layer"]
        merged["traced_passes"] = traced["traced_passes"]
        merged["attempted"] += traced["attempted"]
        merged["failed"] += traced["failed"]
        merged["problems"] += traced["problems"]
        if merged["inputs_sha256"] != traced["inputs_sha256"]:
            merged["problems"].append("inputs differ between the two runs")
        merged["correct"] = merged["failed"] == 0 and not merged["problems"]
        _print_metrics(merged)
        result["workloads"][workload.name] = merged
    suffix = "-smoke" if args.smoke else ""
    path = out_dir / f"result-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"# wrote {path}")
    return 1 if status else 0


# ----------------------------------------------------------------------
# --agree: do two result files tell the same story?
# ----------------------------------------------------------------------
def agree(path_a: str, path_b: str) -> int:
    """Print a verdict row per workload x metric; non-zero when they disagree.

    Exact metrics, ``failed`` and ``inputs_sha256`` must be identical.  A
    host-time end-to-end metric agrees when B is not worse than A by more
    than the metric's bound, and is *unresolved* — neither agreement nor
    regression — when either file's own IQR/median exceeds that bound.
    Host-time per-layer metrics carry no bound and are not judged.
    """
    from layers import metrics

    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    registry = metrics.by_name()
    bad = 0
    print(f"{'workload':<20} {'metric':<30} {'A':>16} {'B':>16}  verdict")

    def row(workload: str, metric: str, va, vb, verdict: str) -> None:
        print(f"{workload:<20} {metric:<30} {va!s:>16.16} {vb!s:>16.16}  {verdict}")

    if not (a.get("comparable") and b.get("comparable")):
        print("# at least one file is a --smoke run: not comparable")
        bad += 1
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            row(name, "-", wa is not None, wb is not None, "MISSING")
            bad += 1
            continue
        for key in ("inputs_sha256", "failed"):
            same = wa[key] == wb[key]
            bad += not same
            row(name, key, wa[key], wb[key], "same" if same else "DIFFERS")
        for metric, cell in wa["end_to_end"].items():
            m = registry[metric]
            other = wb["end_to_end"][metric]
            worse = metrics.worse_by(m, cell["value"], other["value"])
            noisy = max(cell["spread"] or 0.0, other["spread"] or 0.0) > m.bound
            if noisy:
                verdict = f"unresolved (IQR/median > {m.bound})"
            elif worse > m.bound:
                verdict = f"WORSE by {worse:.3f} (> {m.bound})"
                bad += 1
            else:
                verdict = f"agree ({worse:+.3f}, bound {m.bound})"
            row(name, metric, cell["value"], other["value"], verdict)
        matching = 0
        for metric, cell in wa["per_layer"].items():
            if not registry[metric].exact:
                continue
            va, vb = cell["value"], wb["per_layer"][metric]["value"]
            if va != vb:
                row(name, metric, va, vb, "DIFFERS (exact)")
                bad += 1
            elif va:
                row(name, metric, va, vb, "same")
            else:
                matching += 1
        print(f"# {name}: {matching} more exact metrics are zero in both files")
    print("# verdict:", "DISAGREE" if bad else "agree")
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--out", default=str(OUT_DIR), help="spans + result files")
    parser.add_argument("--detail", help="also write this run's full record here")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.05 if args.smoke else RUN_SECONDS
    _bootstrap()
    if args.agree:
        return agree(*args.agree)
    if args.workload == "all":
        return run_all(args)
    from layers.workloads import WORKLOADS

    if args.workload not in [w.name for w in WORKLOADS]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
