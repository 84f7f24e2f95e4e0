#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml, command for command
# (tests/test_ci_mirror.py fails when ci.yml gains a command this script
# lacks).  Not mirrored, because they change the environment or the checkout:
# steps that `pip install` something first (the coverage leg, the NumPy-floor
# leg) and bench-regression's host-clock bench, which rewrites its committed
# BENCH_obs_overhead.json (the modeled gate writes nothing: it is here).
#
#   scripts/check.sh          # run every leg, report at the end
#
# A leg whose tool is missing prints "SKIPPED (not installed)" and counts as
# neither passed nor failed; the exit status is non-zero iff a leg failed.
set -u
cd "$(dirname "$0")/.."
# CI installs the package (`pip install -e .`); a checkout runs it from src/.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

passed=() failed=() skipped=()

# leg TOOL COMMAND: run COMMAND through the shell if TOOL is on PATH.
leg() {
    local tool=$1 command=$2
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "SKIPPED (not installed): $command"
        skipped+=("$command")
        return
    fi
    echo "+ $command"
    if bash -c "$command"; then passed+=("$command"); else failed+=("$command"); fi
}

# --- lint -------------------------------------------------------------------
leg ruff "ruff check src tests benchmarks examples scripts"
leg ruff "ruff format --check src tests benchmarks examples scripts"

# --- typecheck --------------------------------------------------------------
leg mypy "mypy src/repro/boundary.py src/repro/service src/repro/workloads src/repro/obs src/repro/control src/repro/backends"

# --- test -------------------------------------------------------------------
leg python "python -m pytest -x -q"
leg python "python examples/quickstart.py"
leg python "python examples/lca_query_service.py"
leg python "python examples/lca_cluster.py"
leg python "python examples/scenario_replay.py"
leg python "python -m pytest benchmarks/layers -q -p no:cacheprovider"
leg python "python benchmarks/layers/run.py --smoke"
leg python "python benchmarks/bench_answer_cache.py --smoke"
leg python "python benchmarks/bench_query_kernel.py --smoke"

# --- docs -------------------------------------------------------------------
leg python "python scripts/check_markdown_links.py README.md ROADMAP.md docs"
leg python "python -m pytest --doctest-modules src/repro/boundary.py src/repro/backends src/repro/service src/repro/workloads src/repro/obs src/repro/control -q"

# --- bench-regression (modeled suites; ~20 s) -------------------------------
leg python "python benchmarks/modeled.py --check"

# --- report -----------------------------------------------------------------
echo
echo "passed : ${#passed[@]}"
echo "skipped: ${#skipped[@]} (not installed)"
for command in ${skipped[@]+"${skipped[@]}"}; do echo "    $command"; done
echo "failed : ${#failed[@]}"
for command in ${failed[@]+"${failed[@]}"}; do echo "    $command"; done
[ ${#failed[@]} -eq 0 ]
