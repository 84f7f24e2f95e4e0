#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the lint, typecheck, test and docs
# jobs, command for command (tests/test_ci_mirror.py fails when ci.yml gains a
# command this script lacks).  Not mirrored, because they change the
# environment or the checkout: steps that `pip install` something first (the
# coverage leg, the NumPy-floor leg) and the bench-regression job, which
# rewrites the committed BENCH_*.json files.
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

# gate NAME: run the shell program on stdin (a multi-line CI step) as one leg.
gate() {
    local name=$1
    echo "+ [$name]"
    if bash -s; then passed+=("$name"); else failed+=("$name"); fi
}

# --- lint -------------------------------------------------------------------
leg ruff "ruff check src tests benchmarks examples scripts"
leg ruff "ruff format --check src tests benchmarks examples scripts"

# --- typecheck --------------------------------------------------------------
leg mypy "mypy src/repro/service src/repro/workloads src/repro/obs src/repro/control src/repro/backends"

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
leg python "python -m pytest --doctest-modules src/repro/service src/repro/workloads src/repro/obs src/repro/control -q"

gate "No removed constructor kwargs in code, examples or docs" <<'GATE'
removed='policy|router|capacity_bytes|max_pending|start_time|dedup|answer_cache_bytes|answer_cache_seed|ticket_capacity|hedge_delay_s|max_retries|n_replicas'
positional='\bClusterService\(\s*+(?![\w.]+\s*=|[)*]|\.\.\.)'
keyword='\b(?:LCAQueryService|ClusterService)\((?:[^()]|(\((?:[^()]++|(?1))*+\)))*?(?<=[(,])\s*(?:\.\.\.\s*)?(?:'"$removed"')\s*=(?!=)'
hits=$(grep -rPzo --include='*.py' --include='*.md' "$positional|$keyword" \
src examples benchmarks docs README.md | tr '\0' '\n' || true)
if [ -n "$hits" ]; then
echo "$hits"
echo "removed constructor kwargs found (see above); use config=" >&2
exit 1
fi
GATE

gate "No int64 cast of caller-supplied arrays on the edge-list and bridges path" <<'GATE'
hits=$(grep -rnE 'np\.asarray\([^)]*dtype=np\.int64' \
src/repro/bridges src/repro/graphs/edgelist.py || true)
if [ -n "$hits" ]; then
echo "$hits"
echo "cast to int64 found (see above); use as_node_ids / as_parent_array" >&2
exit 1
fi
GATE

gate "One kernel contract, one artifact-key derivation" <<'GATE'
hits=$({ grep -rnE 'sequential=backend\.sequential|^\s*(import|from)\s+multiprocessing' src
grep -rnE '\bbind\(|\breadback\(|BackendCapabilities' src/repro/backends; } || true)
if [ -n "$hits" ]; then
echo "$hits"
echo "a second key derivation, a worker pool or the launch lifecycle is back (see above)" >&2
exit 1
fi
GATE

gate "One Schieber-Vishkin formula in the query kernel" <<'GATE'
count=$(grep -c 'structure\.ascendant\[' src/repro/lca/inlabel.py || true)
if [ "$count" -ne 1 ]; then
echo "src/repro/lca/inlabel.py gathers structure.ascendant[...] $count times; the pass is written once" >&2
exit 1
fi
GATE

# --- report -----------------------------------------------------------------
echo
echo "passed : ${#passed[@]}"
echo "skipped: ${#skipped[@]} (not installed)"
for command in ${skipped[@]+"${skipped[@]}"}; do echo "    $command"; done
echo "failed : ${#failed[@]}"
for command in ${failed[@]+"${failed[@]}"}; do echo "    $command"; done
[ ${#failed[@]} -eq 0 ]
