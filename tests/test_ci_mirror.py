"""``scripts/check.sh`` runs what ``.github/workflows/ci.yml`` runs.

The script is the local mirror of CI's jobs.  This test reads the ``run:``
commands out of the workflow file and fails when one of them is missing from
the script, so the two cannot drift apart.  Out of scope, as the script's
header says: steps that ``pip install`` something first (they change the
environment) and the three host-clock benches of ``bench-regression`` (they
rewrite their committed ``BENCH_*.json``; the modeled gate writes nothing
and is mirrored).
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
SCRIPT = ROOT / "scripts" / "check.sh"
PYPROJECT = ROOT / "pyproject.toml"

JOBS = ("lint", "typecheck", "test", "docs", "bench-regression")

#: What marks a ``bench-regression`` step as one of the host benches': the
#: script it reruns, or the directory its committed baseline is kept aside in.
HOST_BENCH = (
    "bench_wallclock_service.py",
    "bench_obs_overhead.py",
    "bench_skew_speedup.py",
    "bench-baselines",
)


def workflow_steps(text):
    """``[(job, step name, [command lines])]`` for every ``run:`` step.

    A plain ``run: cmd`` and a folded ``run: >`` are one command line; a
    literal ``run: |`` block is one line per non-blank script line.  (The
    workflow is regular enough that a YAML parser — not a test dependency —
    is not needed.)
    """
    lines = text.splitlines()
    steps, job, name, in_jobs = [], None, None, False
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.rstrip() == "jobs:":
            in_jobs = True
        elif in_jobs and (m := re.fullmatch(r"  ([\w-]+):\s*", line)):
            job = m.group(1)
        elif m := re.match(r"\s+- name:\s*(.*)", line):
            name = m.group(1).strip()
        elif m := re.match(r"(\s+)run:\s*(.*)", line):
            indent, value = len(m.group(1)), m.group(2).strip()
            if value not in ("|", ">"):
                steps.append((job, name, [value]))
                continue
            block = []
            while i < len(lines) and (
                not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
            ):
                if lines[i].strip():
                    block.append(lines[i].strip())
                i += 1
            steps.append((job, name, [" ".join(block)] if value == ">" else block))
    return steps


def test_workflow_parser_sees_every_run_step():
    text = WORKFLOW.read_text()
    steps = workflow_steps(text)
    assert len(steps) == len(re.findall(r"^\s+run:", text, flags=re.M))
    assert {job for job, _, _ in steps} == set(JOBS)
    by_name = {name: commands for _, name, commands in steps}
    assert by_name["Ruff lint"] == ["ruff check src tests benchmarks examples scripts"]
    assert by_name["Doctest every module path tier-1 collects"] == [
        "python -m pytest --doctest-modules src/repro/boundary.py src/repro/backends "
        "src/repro/service src/repro/workloads src/repro/obs src/repro/control -q"
    ]
    assert len(by_name["Install package"]) == 2


def test_check_script_runs_every_ci_command():
    script = SCRIPT.read_text()
    mirrored, missing = 0, []
    for job, name, commands in workflow_steps(WORKFLOW.read_text()):
        if any(mark in c for c in commands for mark in ("pip install", *HOST_BENCH)):
            continue
        for command in commands:
            mirrored += 1
            # Each sits inside a quoted ``leg`` argument.  (Design rules are
            # not CI steps: they are tests/test_design_invariants.py.)
            if command not in script:
                missing.append(f"{job} / {name}: {command}")
    assert not missing, "scripts/check.sh lacks:\n" + "\n".join(missing)
    assert "python benchmarks/modeled.py --check" in script
    assert mirrored >= 13  # the legs ROADMAP 5(d) lists and the modeled gate


def test_the_docs_job_doctests_every_path_tier_one_collects():
    """Tier-1 collects doctests from ``testpaths``; the docs job must run the
    same modules, or a doctest it misses fails only locally."""
    testpaths = json.loads(
        re.search(r"^testpaths = (\[.*\])$", PYPROJECT.read_text(), re.M).group(1)
    )
    doctested = [
        path
        for job, _, commands in workflow_steps(WORKFLOW.read_text())
        if job == "docs"
        for command in commands
        if "--doctest-modules" in command
        for path in command.split()
        if path.startswith("src/")
    ]
    assert sorted(doctested) == sorted(set(testpaths) - {"tests"})


def test_check_script_reports_a_missing_tool_as_skipped():
    script = SCRIPT.read_text()
    assert "SKIPPED (not installed)" in script
    assert SCRIPT.stat().st_mode & 0o111, "scripts/check.sh must be executable"


def test_every_test_path_a_ci_command_names_exists():
    """The NumPy-1.22 leg runs test files by path and only in CI: deleting
    one of them must fail here, not there."""
    named = [path for _, _, commands in workflow_steps(WORKFLOW.read_text())
             for command in commands
             for path in re.findall(r"(?<![\w/])tests/[\w/]+\.py\b", command)]
    assert len(named) >= 16
    assert [path for path in named if not (ROOT / path).is_file()] == []
