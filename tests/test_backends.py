"""Tests for the real kernel backends and measured calibration.

Covers the artifact contract (build over a tree's index, ``query`` the
artifact), one backend per price, the bit-identity of every serving backend
against the oracle, the calibration fit/profile machinery, and profile-driven
dispatch — including the property that a calibrated dispatcher always picks
the argmin of the profile's predicted costs.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import (
    DEFAULT_CALIBRATION_GRID,
    BackendCalibration,
    CalibrationProfile,
    calibrate_backends,
    fit_launch_cost,
)
from repro.device import GTX980, XEON_X5650_SINGLE, ExecutionContext
from repro.errors import DeviceError, InvalidQueryError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.lca import InlabelLCA, SequentialInlabelLCA, build_inlabel_index
from repro.lca.artifacts import ARTIFACT_BUILDERS
from repro.lca.reference import BinaryLiftingLCA
from repro.service import (
    CostModelDispatcher,
    LCAQueryService,
    ServiceConfig,
    estimate_batch_query_time,
    known_backend_keys,
    make_backend,
)
from repro.service.dispatch import _BACKEND_PRESETS, dispatcher_for


def _tree(n=257, seed=7):
    return random_attachment_tree(n, seed=seed)


def _queries(n, q, seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, size=q, dtype=np.int64),
        rng.integers(0, n, size=q, dtype=np.int64),
    )


class TestOneBackendPerKernel:
    def test_no_two_backend_keys_name_one_kernel(self):
        builders = list(ARTIFACT_BUILDERS.values())
        assert len(set(builders)) == len(builders)
        kernels = {
            (b.spec.name, b.sequential, ARTIFACT_BUILDERS[b.variant])
            for b in _BACKEND_PRESETS.values()
        }
        assert len(kernels) == len(_BACKEND_PRESETS)

    @pytest.mark.parametrize("key", known_backend_keys())
    def test_every_key_is_calibrated_priced_and_served(self, key):
        ticks = itertools.count()
        profile = calibrate_backends(
            [key],
            batch_sizes=(1, 4, 16),
            repeats=1,
            warmup=0,
            n_nodes=64,
            timer=lambda: next(ticks) * 1e-6,
        )
        assert profile.backends() == (key,)
        assert dispatcher_for([key], profile=profile).choose(16).key == key
        parents = _tree(300, seed=21)
        service = LCAQueryService(
            config=ServiceConfig(max_batch_size=16, backends=(key,))
        )
        service.register_tree("t", parents)
        service.warm("t")
        misses = service.registry.misses
        xs, ys = _queries(300, 200, seed=5)
        tickets = service.submit_many("t", xs, ys)
        service.drain()
        assert np.array_equal(
            service.results(tickets), BinaryLiftingLCA(parents).query(xs, ys)
        )
        assert service.registry.misses == misses

    @pytest.mark.parametrize("key", ["numpy", "numpy-seq", "tpu"])
    def test_a_key_without_a_preset_is_unknown(self, key):
        with pytest.raises(ServiceError, match="unknown backend key"):
            calibrate_backends([key], batch_sizes=(1, 2), n_nodes=64)


class TestBackendContract:
    def test_flavour_variants_build_the_lca_classes(self):
        index = build_inlabel_index(_tree(64))
        assert type(ARTIFACT_BUILDERS["parallel"](index)) is InlabelLCA
        assert type(ARTIFACT_BUILDERS["sequential"](index)) is SequentialInlabelLCA
        view = ARTIFACT_BUILDERS["smallbatch"](index)
        assert type(view) is SequentialInlabelLCA and view.structure is index.structure

    def test_all_backends_match_oracle(self):
        parents = _tree(257)
        index = build_inlabel_index(parents)
        oracle = BinaryLiftingLCA(parents)
        for q in (1, 16, 301):
            xs, ys = _queries(257, q, seed=q)
            expected = oracle.query(xs, ys)
            for key in known_backend_keys():
                kernel = ARTIFACT_BUILDERS[make_backend(key).variant](index)
                assert kernel.n == 257
                ctx = ExecutionContext(make_backend(key).spec)
                for got in (kernel.query(xs, ys), kernel.query(xs, ys, ctx=ctx)):
                    assert np.array_equal(got, expected), key
                    assert got.dtype == np.int64
                assert ctx.elapsed > 0.0

    def test_backend_charges_modeled_context(self):
        index = build_inlabel_index(_tree(128))
        xs, ys = _queries(128, 16)
        for variant, spec in (("parallel", GTX980), ("smallbatch", XEON_X5650_SINGLE)):
            ctx = ExecutionContext(spec)
            kernel = ARTIFACT_BUILDERS[variant](index, ctx=ctx)
            before = ctx.elapsed
            assert before > 0.0  # preprocessing was charged
            kernel.query(xs, ys, ctx=ctx)
            assert ctx.elapsed > before  # queries were charged


def _run_python(code):
    """Run ``code`` in a fresh interpreter that can import this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


class TestImportHygiene:
    def test_default_service_never_imports_the_backend_package(self):
        done = _run_python(
            "import sys, numpy as np, repro\n"
            "from repro.service import LCAQueryService\n"
            "svc = LCAQueryService()\n"
            "svc.register_tree('t', np.array([-1, 0, 0]))\n"
            "svc.warm('t')\n"
            "tickets = svc.submit_many('t', [1], [2])\n"
            "svc.drain()\n"
            "assert svc.results(tickets).tolist() == [0]\n"
            "assert 'repro.backends' not in sys.modules\n"
        )
        assert done.returncode == 0, done.stderr

    def test_backend_package_does_not_import_multiprocessing(self):
        done = _run_python(
            "import sys, repro.backends\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        assert done.returncode == 0, done.stderr


class TestSmallBatchKernel:
    """The ``smallbatch`` artifact: the sequential view under its own build
    record, so every batch width runs the one vectorized query."""

    def test_scalar_path_matches_vectorized(self):
        # The widths the small-batch path serves (a read with <= 16 pending
        # lanes) answer exactly as the oracle does.
        parents = _tree(511, seed=3)
        oracle = BinaryLiftingLCA(parents)
        view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents))
        for q in (1, 2, 7, 15, 16):
            xs, ys = _queries(511, q, seed=q)
            assert np.array_equal(view.query(xs, ys), oracle.query(xs, ys))

    def test_oversized_batch_falls_back(self):
        parents = _tree(511, seed=3)
        oracle = BinaryLiftingLCA(parents)
        view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents))
        xs, ys = _queries(511, 100, seed=5)  # wider than any small-batch read
        assert np.array_equal(view.query(xs, ys), oracle.query(xs, ys))

    def test_result_valid_until_next_launch(self):
        # Each launch returns its own array: the next one overwrites nothing.
        parents = _tree(64)
        view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents))
        xs, ys = _queries(64, 4)
        first = view.query(xs, ys)
        kept = first.copy()
        view.query(ys, xs)
        assert np.array_equal(first, kept)
        assert np.array_equal(first, view.query(xs, ys))

    def test_out_of_range_nodes_rejected(self):
        parents = _tree(32)
        view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents))
        with pytest.raises(InvalidQueryError):
            view.query(np.array([0]), np.array([32]))
        with pytest.raises(InvalidQueryError):
            view.query(np.array([-1]), np.array([0]))

    def test_shape_mismatch_rejected(self):
        parents = _tree(32)
        view = ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents))
        with pytest.raises(InvalidQueryError):
            view.query(np.array([0, 1]), np.array([2]))

    def test_charge_matches_sequential_model(self):
        # The smallbatch backend is a price: its view books the same modeled
        # cost as the sequential inlabel artifact, under its own build record.
        index = build_inlabel_index(_tree(128))
        xs, ys = _queries(128, 24)
        ctx_a = ExecutionContext(XEON_X5650_SINGLE)
        ARTIFACT_BUILDERS["smallbatch"](index, ctx=ctx_a).query(xs, ys, ctx=ctx_a)
        ctx_b = ExecutionContext(XEON_X5650_SINGLE)
        ARTIFACT_BUILDERS["sequential"](index, ctx=ctx_b).query(xs, ys, ctx=ctx_b)
        assert ctx_a.elapsed == pytest.approx(ctx_b.elapsed)


def _profile(entries, *, meta=None):
    return CalibrationProfile(entries=dict(entries), meta=dict(meta or {}))


def _entry(key, overhead, per_query, lo=1, hi=1024):
    return BackendCalibration(
        backend=key,
        launch_overhead_s=overhead,
        per_query_s=per_query,
        min_batch=lo,
        max_batch=hi,
        samples=8,
        residual=0.0,
    )


class TestCalibrationProfile:
    def test_predict_is_affine(self):
        prof = _profile({"gpu": _entry("gpu", 1e-5, 1e-7)})
        assert prof.predict("gpu", 10) == pytest.approx(1e-5 + 10 * 1e-7)

    def test_predict_refuses_to_extrapolate(self):
        prof = _profile({"gpu": _entry("gpu", 1e-5, 1e-7, lo=2, hi=64)})
        with pytest.raises(DeviceError, match="calibrated range"):
            prof.predict("gpu", 1)
        with pytest.raises(DeviceError, match="calibrated range"):
            prof.predict("gpu", 65)
        with pytest.raises(DeviceError, match="no calibration"):
            prof.predict("smallbatch", 8)

    def test_batch_range_intersects_windows(self):
        prof = _profile(
            {
                "a": _entry("a", 1e-5, 1e-7, lo=1, hi=64),
                "b": _entry("b", 1e-5, 1e-7, lo=4, hi=256),
            }
        )
        assert prof.batch_range(["a", "b"]) == (4, 64)
        with pytest.raises(DeviceError):
            prof.batch_range(["a", "c"])

    def test_json_round_trip(self, tmp_path):
        prof = _profile(
            {
                "gpu": _entry("gpu", 7.5e-5, 8.6e-8),
                "smallbatch": _entry("smallbatch", 9.5e-6, 2.6e-7),
            },
            meta={"n_nodes": 4096, "seed": 0},
        )
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(prof.to_dict()))
        loaded = CalibrationProfile.load(path)
        assert loaded == prof

    def test_from_dict_rejects_bad_version(self):
        payload = _profile({}).to_dict()
        payload["version"] = 999
        with pytest.raises(ServiceError, match="version"):
            CalibrationProfile.from_dict(payload)

    def test_from_dict_rejects_unknown_keys(self):
        payload = _profile({"gpu": _entry("gpu", 1e-5, 1e-7)}).to_dict()
        payload["backends"]["gpu"]["surprise"] = 1
        with pytest.raises(ServiceError):
            CalibrationProfile.from_dict(payload)


class TestFitLaunchCost:
    def test_recovers_exact_line(self):
        sizes = [1, 2, 4, 8, 16, 32, 64]
        times = [2e-5 + 3e-7 * s for s in sizes]
        a, b, residual = fit_launch_cost(sizes, times)
        assert a == pytest.approx(2e-5, rel=1e-6)
        assert b == pytest.approx(3e-7, rel=1e-6)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_robust_to_one_outlier(self):
        sizes = [1, 2, 4, 8, 16, 32, 64, 128]
        times = [2e-5 + 3e-7 * s for s in sizes]
        times[3] *= 25.0  # a descheduled sample
        a, b, _ = fit_launch_cost(sizes, times)
        assert a == pytest.approx(2e-5, rel=0.05)
        assert b == pytest.approx(3e-7, rel=0.05)

    def test_clamps_to_physical_values(self):
        # A decreasing series would fit a negative overhead; clamp to zero.
        a, b, _ = fit_launch_cost([1, 2, 4], [3e-7, 5e-7, 9e-7])
        assert a >= 0.0
        assert b > 0.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ServiceError):
            fit_launch_cost([1], [1e-6])
        with pytest.raises(ServiceError):
            fit_launch_cost([1, 2], [1e-6])  # length mismatch


class TestCalibrateBackends:
    def test_smoke_profile_covers_requested_backends(self):
        prof = calibrate_backends(
            ["smallbatch", "gpu"],
            batch_sizes=(1, 4, 16, 64),
            repeats=2,
            warmup=1,
            n_nodes=256,
        )
        assert set(prof.backends()) == {"smallbatch", "gpu"}
        for key in ("smallbatch", "gpu"):
            assert prof.predict(key, 16) > 0.0
        assert prof.meta["n_nodes"] == 256

    def test_deterministic_with_injected_timer(self):
        ticks = iter(np.arange(0.0, 1e6).tolist())

        def timer():
            return next(ticks) * 1e-4

        prof = calibrate_backends(
            ["smallbatch"],
            batch_sizes=(1, 4, 16),
            repeats=1,
            warmup=0,
            n_nodes=128,
            timer=timer,
        )
        cal = prof.entries["smallbatch"]
        assert cal.min_batch == 1
        assert cal.max_batch == 16

    def test_one_timed_pass_fits_one_line_for_every_key(self):
        """Every key's view runs the one host query: the grid is timed once
        per (size, repeat), not once per key, and each key gets that line."""
        calls = itertools.count()

        def timer():
            return next(calls) * 1e-6

        sizes, repeats = (1, 4, 16, 64), 3
        prof = calibrate_backends(
            ["smallbatch", "gpu"],
            batch_sizes=sizes,
            repeats=repeats,
            warmup=1,
            n_nodes=128,
            timer=timer,
        )
        assert next(calls) == 2 * len(sizes) * repeats  # a start and a stop each
        small, gpu = prof.entries["smallbatch"], prof.entries["gpu"]
        assert (small.backend, gpu.backend) == ("smallbatch", "gpu")
        assert small.to_dict() == gpu.to_dict()

    def test_rejects_unusable_grid(self):
        with pytest.raises(ServiceError):
            calibrate_backends(["smallbatch"], batch_sizes=(4,), n_nodes=64)


@st.composite
def profiles_with_batch(draw):
    keys = draw(
        st.lists(
            st.sampled_from(known_backend_keys()),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    entries = {}
    for key in keys:
        overhead = draw(st.floats(1e-7, 1e-3, allow_nan=False))
        per_query = draw(st.floats(1e-9, 1e-5, allow_nan=False))
        entries[key] = _entry(key, overhead, per_query, lo=1, hi=2048)
    batch = draw(st.integers(1, 2048))
    return _profile(entries), keys, batch


class TestProfileDrivenDispatch:
    @settings(max_examples=60, deadline=None)
    @given(profiles_with_batch())
    def test_choice_is_argmin_of_predicted_cost(self, case):
        profile, keys, batch = case
        dispatcher = dispatcher_for(keys, profile=profile)
        backend, estimate = dispatcher.choose_with_estimate(batch)
        predicted = {k: profile.predict(k, batch) for k in keys}
        assert estimate == pytest.approx(min(predicted.values()))
        assert predicted[backend.key] == min(predicted.values())

    def test_estimate_uses_profile_over_model(self):
        profile = _profile({"gpu": _entry("gpu", 1e-5, 1e-7)})
        backend = make_backend("gpu")
        measured = estimate_batch_query_time(backend, 10, profile=profile)
        modeled = estimate_batch_query_time(backend, 10)
        assert measured == pytest.approx(1e-5 + 10 * 1e-7)
        assert measured != modeled

    def test_estimate_out_of_range_is_typed_error(self):
        profile = _profile({"gpu": _entry("gpu", 1e-5, 1e-7, lo=1, hi=64)})
        backend = make_backend("gpu")
        with pytest.raises(DeviceError):
            estimate_batch_query_time(backend, 65, profile=profile)
        # batch_size validation still wins over profile lookup
        with pytest.raises(ServiceError):
            estimate_batch_query_time(backend, 0, profile=profile)

    def test_dispatcher_requires_profile_coverage(self):
        profile = _profile({"gpu": _entry("gpu", 1e-5, 1e-7)})
        with pytest.raises(DeviceError):
            dispatcher_for(["gpu", "smallbatch"], profile=profile)

    def test_crossover_derived_from_profile(self):
        # smallbatch: cheap launch, costly per query; gpu: the reverse.
        # Crossover = overhead gap / per-query gap = 99e-6 / 99e-8 = 100.
        profile = _profile(
            {
                "smallbatch": _entry("smallbatch", 1e-6, 1e-6),
                "gpu": _entry("gpu", 1e-4, 1e-8),
            }
        )
        dispatcher = dispatcher_for(["smallbatch", "gpu"], profile=profile)
        assert dispatcher.choose(10).key == "smallbatch"
        assert dispatcher.choose(1000).key == "gpu"
        crossover = dispatcher.crossover_batch_size()
        assert crossover is not None
        assert 95 <= crossover <= 105

    def test_no_profile_dispatch_unchanged(self):
        dispatcher = dispatcher_for(["cpu1", "gpu"])
        baseline = CostModelDispatcher()
        for batch in (1, 8, 64, 512):
            assert dispatcher.choose(batch).key == baseline.choose(batch).key
            b = baseline.choose(batch)
            assert dispatcher.estimate(b, batch) == estimate_batch_query_time(
                b, batch
            )

    def test_dispatcher_for_rejects_path_and_profile(self, tmp_path):
        profile = _profile({"gpu": _entry("gpu", 1e-5, 1e-7)})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(profile.to_dict()))
        with pytest.raises(ServiceError):
            dispatcher_for(["gpu"], str(path), profile=profile)


class TestServiceIntegration:
    def _profile_file(self, tmp_path):
        profile = _profile(
            {
                "smallbatch": _entry("smallbatch", 1e-6, 1e-6),
                "gpu": _entry("gpu", 1e-4, 1e-8),
            }
        )
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile.to_dict()))
        return str(path), profile

    def test_config_builds_calibrated_service(self, tmp_path):
        path, profile = self._profile_file(tmp_path)
        config = ServiceConfig(
            max_batch_size=256,
            backends=("smallbatch", "gpu"),
            calibration_path=path,
        )
        service = LCAQueryService(config=config)
        assert service.dispatcher.profile == profile
        parents = _tree(300, seed=21)
        oracle = BinaryLiftingLCA(parents)
        service.register_tree("t", parents)
        xs, ys = _queries(300, 777, seed=23)
        tickets = service.submit_many("t", xs, ys)
        service.drain()
        assert np.array_equal(service.results(tickets), oracle.query(xs, ys))

    def test_estimate_equals_charge_under_profile(self, tmp_path):
        # The serving invariant survives measured profiles: the time a
        # batch is booked for equals the dispatcher's estimate for it.
        from repro.obs import TraceRecorder
        from repro.obs.report import batch_spans

        path, _ = self._profile_file(tmp_path)
        config = ServiceConfig(
            max_batch_size=64,
            backends=("smallbatch", "gpu"),
            calibration_path=path,
        )
        recorder = TraceRecorder()
        service = LCAQueryService(config=config)
        service.attach_observer(recorder)
        parents = _tree(100, seed=2)
        service.register_tree("t", parents)
        for seed in (3, 4):  # second round serves on a warm index cache
            xs, ys = _queries(100, 40, seed=seed)
            service.submit_many("t", xs, ys)
            service.drain()
        spans = batch_spans(recorder.table())
        assert len(spans) >= 2
        for span in spans[1:]:  # first span may include the index build
            chosen = service.dispatcher.choose(span.size)
            estimate = service.dispatcher.estimate(chosen, span.size)
            assert span.service_s == pytest.approx(estimate)
            assert span.predicted_s == pytest.approx(estimate)
        assert service.stats().queries_answered == 80

    def test_config_round_trip_preserves_backends(self, tmp_path):
        path, _ = self._profile_file(tmp_path)
        config = ServiceConfig(
            backends=("smallbatch", "gpu"), calibration_path=path
        )
        restored = ServiceConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored.backends == ("smallbatch", "gpu")
        assert restored.calibration_path == path

    def test_backends_config_without_profile_uses_model(self):
        config = ServiceConfig(backends=("cpu1", "gpu"))
        service = LCAQueryService(config=config)
        assert service.dispatcher.profile is None
        assert tuple(b.key for b in service.dispatcher.backends) == (
            "cpu1",
            "gpu",
        )

    def test_empty_backends_tuple_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(backends=())

    def test_duplicate_backends_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(backends=("gpu", "gpu"))
