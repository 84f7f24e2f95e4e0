"""``benchmarks/modeled.py``: the equality gate over the six modeled suites.

The comparer is tested on hand-made payloads; the cheapest suite (``chaos``,
about a second) runs once end to end against its committed baseline.
"""

import copy
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def modeled():
    # The driver is a script: it imports its sibling ``bench_util`` by name.
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("modeled")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def payload():
    return {
        "benchmark": "toy",
        "kind": "modeled",
        "timestamp": "2026-01-01T00:00:00+0000",
        "machine": {"platform": "Linux-a", "python": "3.11.7", "numpy": "2.4.6"},
        "wall_s": 1.5,
        "config": {"seed": 0, "slos": {"steady": {"p99_latency_s": 3e-4}}},
        "live_calibration": {"kind": "host", "wall_s": 0.2},
        "rows": [{"scenario": "steady", "score": 0.25, "lost": 0, "slo_met": True}],
        "headline": {"availability": 1.0},
    }


def test_a_perturbed_leaf_is_reported_by_its_dotted_path(modeled):
    committed, fresh = payload(), payload()
    assert modeled.first_difference(committed, fresh) is None
    fresh["rows"][0]["score"] = math.nextafter(0.25, 1.0)  # one ulp
    assert modeled.first_difference(committed, fresh).startswith("rows.0.score: ")
    fresh = payload()
    fresh["config"]["slos"]["steady"]["p99_latency_s"] = 5e-4
    assert modeled.first_difference(committed, fresh).startswith(
        "config.slos.steady.p99_latency_s: committed 0.0003, regenerated 0.0005"
    )
    # Equal under ``==`` is not enough: 0 is not 0.0 is not False in the file.
    for path, value in (("lost", 0.0), ("lost", False), ("slo_met", 1)):
        fresh = payload()
        fresh["rows"][0][path] = value
        assert modeled.first_difference(committed, fresh).startswith(f"rows.0.{path}: ")


def test_exactly_the_volatile_keys_are_ignored(modeled):
    assert modeled.VOLATILE == (
        "timestamp",
        "machine.platform",
        "machine.python",
        "wall_s",
        "live_calibration",
    )
    committed, fresh = payload(), payload()
    fresh["timestamp"] = "2027-01-01T00:00:00+0000"
    fresh["machine"].update(platform="Linux-b", python="3.12.1")
    fresh["wall_s"] = 9.0
    fresh["live_calibration"] = None
    assert modeled.first_difference(committed, fresh) is None
    del fresh["live_calibration"], fresh["wall_s"]
    assert modeled.first_difference(committed, fresh) is None
    # Every other top-level key and every other ``machine`` key is compared,
    # and a volatile name deeper in the payload is an ordinary key.
    for path in ("benchmark", "kind", "config", "rows", "headline"):
        fresh = payload()
        fresh[path] = "changed"
        assert modeled.first_difference(committed, fresh).startswith(f"{path}: ")
    fresh = payload()
    fresh["config"]["wall_s"] = 1.0
    assert modeled.first_difference(committed, fresh).startswith("config.wall_s: ")


def test_a_missing_or_extra_key_or_row_fails(modeled):
    committed, fresh = payload(), payload()
    del fresh["headline"]["availability"]
    assert modeled.first_difference(committed, fresh) == (
        "headline.availability: committed, but not regenerated"
    )
    fresh = payload()
    fresh["rows"][0]["retried"] = 3
    assert modeled.first_difference(committed, fresh) == (
        "rows.0.retried: regenerated, but not committed"
    )
    fresh = payload()
    fresh["rows"].append(copy.deepcopy(fresh["rows"][0]))
    assert modeled.first_difference(committed, fresh) == (
        "rows: 1 items committed, 2 regenerated"
    )


def test_the_one_tolerance_applies_only_across_numpy_releases(modeled):
    assert modeled.NUMPY_DRIFT_RTOL == 1e-9
    committed, fresh = payload(), payload()
    fresh["rows"][0]["score"] = 0.25 * (1 + 1e-12)
    assert modeled.first_difference(committed, fresh).startswith("rows.0.score: ")
    fresh["machine"]["numpy"] = "1.26.4"
    assert modeled.first_difference(committed, fresh) is None
    fresh["rows"][0]["score"] = 0.25 * (1 + 1e-6)
    assert modeled.first_difference(committed, fresh).startswith("rows.0.score: ")
    # The tolerance is for floats: a count or a flag still has to be equal.
    fresh = payload()
    fresh["machine"]["numpy"] = "1.26.4"
    fresh["rows"][0]["lost"] = 1
    assert modeled.first_difference(committed, fresh).startswith("rows.0.lost: ")


def test_the_suite_table_is_the_set_of_committed_modeled_baselines(modeled):
    stamped = {
        path.name[len("BENCH_") : -len(".json")]
        for path in ROOT.glob("BENCH_*.json")
        if json.loads(path.read_text()).get("kind") == "modeled"
    }
    assert set(modeled.SUITES) == stamped
    assert len(stamped) == 6
    backends = json.loads(modeled.json_path("backends").read_text())
    assert backends["live_calibration"]["kind"] == "host"


def test_chaos_regenerates_equal_to_its_committed_baseline(modeled, capsys):
    if modeled.BENCH_SCALE != 1.0:
        pytest.skip("the committed baselines are scale-1 runs")
    before = modeled.json_path("chaos").read_bytes()
    run, fresh = modeled.regenerate("chaos")
    assert run.failures == []
    assert modeled.check("chaos", fresh) is None
    fresh["headline"]["kill_p99_ms"] = math.nextafter(
        fresh["headline"]["kill_p99_ms"], math.inf
    )
    assert modeled.check("chaos", fresh).startswith("headline.kill_p99_ms: ")
    assert modeled.json_path("chaos").read_bytes() == before


def test_a_violated_assertion_fails_the_gate_and_is_never_written(
    modeled, monkeypatch, capsys
):
    monkeypatch.setattr(modeled, "BENCH_SCALE", 1.0)
    before = modeled.json_path("chaos").read_bytes()
    committed = json.loads(before)
    body = {key: committed[key] for key in ("config", "rows", "headline")}
    broken = modeled.SuiteRun(body, "table", ["lost 3 queries"], "unreached")
    monkeypatch.setitem(modeled.SUITES, "chaos", lambda: broken)
    for flag in ("--check", "--write"):
        assert modeled.main(["chaos", flag]) == 1
        assert "FAIL [chaos]: lost 3 queries" in capsys.readouterr().err
    assert modeled.json_path("chaos").read_bytes() == before
    # A plain run only prints: a scaled run may break an SLO sized for scale 1.
    assert modeled.main(["chaos"]) == 0
    assert "note [chaos]: lost 3 queries" in capsys.readouterr().err


def test_check_and_write_refuse_a_scaled_run(modeled, monkeypatch, capsys):
    monkeypatch.setattr(modeled, "BENCH_SCALE", 0.25)
    for flag in ("--check", "--write"):
        with pytest.raises(SystemExit) as refused:
            modeled.main(["chaos", flag])
        assert refused.value.code == 2
        assert "REPRO_BENCH_SCALE=0.25" in capsys.readouterr().err
