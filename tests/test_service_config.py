"""The typed configuration surface: round-trips, construction, exports.

``config=`` is the only carrier of knobs: the constructors keep the config
they are given, default to ``ServiceConfig()`` / ``ClusterConfig()``, and
accept no per-knob keyword.
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import (
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    ServiceConfig,
)


# ----------------------------------------------------------------------
# Round-tripping and derivation
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            ServiceConfig(),
            ServiceConfig(
                max_batch_size=64,
                max_wait_s=2e-4,
                capacity_bytes=1 << 20,
                dedup=True,
                answer_cache_bytes=1 << 16,
            ),
            ClusterConfig(),
            ClusterConfig(
                n_replicas=3,
                max_batch_size=256,
                router="round-robin",
                max_pending=512,
                dedup=True,
                answer_cache_bytes=1 << 20,
                hedge_delay_s=1e-3,
            ),
        ],
    )
    def test_dict_and_json_round_trip(self, cfg):
        assert type(cfg).from_dict(cfg.to_dict()) == cfg
        assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServiceError, match="unknown ServiceConfig"):
            ServiceConfig.from_dict({"max_batch": 4})
        with pytest.raises(ServiceError, match="unknown ClusterConfig"):
            ClusterConfig.from_dict({"replicas": 4})

    def test_from_json_rejects_non_object(self):
        for text in ("[1, 2]", '["max_batch_size"]', "[]", '"ab"'):
            with pytest.raises(ServiceError, match="must be an object"):
                ServiceConfig.from_dict(json.loads(text))

    def test_derive_changes_only_named_fields(self):
        base = ClusterConfig(n_replicas=2, max_pending=100)
        derived = base.derive(max_pending=200)
        assert derived.max_pending == 200
        assert derived.n_replicas == 2
        assert base.max_pending == 100  # frozen: original untouched

    def test_derive_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown ServiceConfig"):
            ServiceConfig().derive(hedge_delay_s=1e-3)

    def test_derive_revalidates(self):
        with pytest.raises(ServiceError):
            ServiceConfig().derive(max_batch_size=0)
        with pytest.raises(ServiceError):
            ClusterConfig().derive(n_replicas=0)

    def test_validation_matches_service_errors(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_wait_s=-1.0)
        with pytest.raises(ServiceError):
            ServiceConfig(capacity_bytes=0)
        with pytest.raises(ServiceError):
            ClusterConfig(max_pending=0)
        with pytest.raises(ServiceError):
            ClusterConfig(hedge_delay_s=0.0)

    def test_tunable_sets(self):
        assert ServiceConfig.TUNABLE == {"max_batch_size", "max_wait_s"}
        assert ClusterConfig.TUNABLE == {
            "max_batch_size",
            "max_wait_s",
            "hedge_delay_s",
            "max_pending",
            "n_replicas",
        }


# ----------------------------------------------------------------------
# Construction: config= is the one way in
# ----------------------------------------------------------------------
class TestShim:
    def test_service_config_object_is_kept(self):
        cfg = ServiceConfig(max_batch_size=8, answer_cache_bytes=1 << 16)
        svc = LCAQueryService(config=cfg)
        assert svc.config is cfg
        assert svc.policy == cfg.batch_policy()
        assert svc.answer_cache is not None
        assert LCAQueryService().config == ServiceConfig()

    def test_cluster_config_object(self):
        cfg = ClusterConfig(n_replicas=2, router="round-robin", dedup=True)
        cluster = ClusterService(config=cfg)
        assert cluster.config is cfg
        assert cluster.n_replicas == 2
        assert cluster.router.name == "round-robin"
        assert all(w.config.dedup for w in cluster.replicas)

    def test_cluster_requires_replica_count_somewhere(self):
        # "Somewhere" is the config, and only the config.
        assert ClusterService().n_replicas == ClusterConfig().n_replicas
        with pytest.raises(TypeError):
            ClusterService(4)

    def test_per_knob_keywords_are_gone(self):
        for knob in ("policy", "capacity_bytes", "dedup", "answer_cache_bytes"):
            with pytest.raises(TypeError):
                LCAQueryService(**{knob: None})
            with pytest.raises(TypeError):
                ClusterService(**{knob: None})

    def test_cluster_router_string_key(self):
        for name in ("round-robin", "least-outstanding", "consistent-hash"):
            cfg = ClusterConfig(n_replicas=2, router=name)
            assert ClusterService(config=cfg).router.name == name

    def test_cluster_router_bad_key(self):
        with pytest.raises(ServiceError, match="unknown router policy"):
            ClusterService(config=ClusterConfig(n_replicas=2, router="fastest"))


class TestEquivalence:
    def test_added_replica_inherits_config(self):
        cluster = ClusterService(
            config=ClusterConfig(n_replicas=2, max_batch_size=32, dedup=True)
        )
        rid = cluster.add_replica()
        worker = cluster.replicas[rid]
        assert worker.config == cluster.replicas[0].config
        assert worker.policy.max_batch_size == 32


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def exporting_modules():
    """``repro`` and each of its packages and modules that has an ``__all__``."""
    import repro

    modules = [repro] + [importlib.import_module(info.name) for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    return [module.__name__ for module in modules if hasattr(module, "__all__")]


EXPORTERS = exporting_modules()


@pytest.mark.parametrize("name", EXPORTERS)
def test_every_exported_name_is_there(name):
    """A deletion takes its re-exports with it."""
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_all_exports_resolve():
    import repro
    import repro.control

    assert len(EXPORTERS) > 50 and "repro.obs" in EXPORTERS
    assert repro.ServiceConfig is ServiceConfig
    assert repro.ClusterConfig is ClusterConfig
    assert repro.SLO is repro.control.SLO
    assert repro.Controller is repro.control.Controller
    assert repro.AutoscalePolicy is repro.control.AutoscalePolicy
    assert "AutoscalePolicy" in repro.__all__
    assert "AutoscalePolicy" in repro.control.__all__


def test_version_matches_pyproject():
    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert declared is not None and repro.__version__ == declared.group(1)
