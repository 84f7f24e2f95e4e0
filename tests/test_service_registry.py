"""Registry tests: store registration, LRU eviction order, hit/miss accounting."""

import gc
import weakref

import numpy as np
import pytest

from repro.bridges import find_bridges_tarjan_vishkin
from repro.device import GTX980, XEON_X5650_MULTI, XEON_X5650_SINGLE, ExecutionContext
from repro.errors import ServiceError
from repro.graphs.generators import grasp_tree, random_attachment_tree
from repro.graphs.generators.random_trees import grasp_for_target_depth
from repro.lca import InlabelIndex, InlabelLCA, SequentialInlabelLCA, build_inlabel_index
from repro.lca.artifacts import ARTIFACT_BUILDERS
from repro.service import (
    ArtifactKey,
    ClusterConfig,
    ClusterService,
    ForestStore,
    IndexRegistry,
    LCAQueryService,
    StatsCollector,
)

from .conftest import random_connected_graph
from .test_graphs_trees import NOT_PARENT_ARRAYS


def make_store(*names, n=256):
    store = ForestStore()
    for i, name in enumerate(names):
        store.add_tree(name, random_attachment_tree(n, seed=i))
    return store


# ----------------------------------------------------------------------
# ForestStore
# ----------------------------------------------------------------------

def test_store_registration_and_access():
    store = make_store("a")
    assert store.has_tree("a") and not store.has_tree("b")
    assert store.tree("a").size == 256
    assert store.names == ["a"]


def test_store_rejects_duplicates_and_bad_args():
    store = make_store("a")
    with pytest.raises(ServiceError):
        store.add_tree("a", random_attachment_tree(16, seed=0))
    with pytest.raises(ServiceError):
        store.add_tree("", random_attachment_tree(16, seed=0))
    with pytest.raises(ServiceError):
        store.add_tree("b")  # neither parents nor loader
    with pytest.raises(ServiceError):
        store.add_tree("b", random_attachment_tree(16, seed=0),
                       loader=lambda: random_attachment_tree(16, seed=0))
    with pytest.raises(ServiceError):
        store.tree("missing")


def test_store_lazy_loader_failure_is_retryable():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("transient")
        return random_attachment_tree(32, seed=6)

    store = ForestStore()
    store.add_tree("flaky", loader=flaky)
    with pytest.raises(OSError):
        store.tree("flaky")
    # The failed load must not consume the loader: the next access retries
    # and succeeds instead of raising a bare KeyError.
    assert store.tree("flaky").size == 32
    assert len(attempts) == 2


def test_store_lazy_loader_honors_validate_flag():
    from repro.errors import NotATreeError

    store = ForestStore()
    # Cyclic, rootless parent array: must be rejected at materialization.
    store.add_tree("bad", loader=lambda: np.asarray([1, 2, 0]), validate=True)
    with pytest.raises(NotATreeError):
        store.tree("bad")
    # Without the flag the same loader result is accepted as-is.
    store.add_tree("unchecked", loader=lambda: np.asarray([1, 2, 0]))
    assert store.tree("unchecked").tolist() == [1, 2, 0]


@pytest.mark.parametrize("case", sorted(NOT_PARENT_ARRAYS))
def test_non_integer_or_2d_parent_arrays_are_refused_not_cast(case):
    """Eagerly at registration; for a lazy loader when it materializes."""
    from repro.errors import NotATreeError
    from repro.service import ClusterConfig, ClusterService, LCAQueryService

    bad = NOT_PARENT_ARRAYS[case]
    store = ForestStore()
    with pytest.raises(NotATreeError, match="integers|1-D"):
        store.add_tree("eager", bad)
    assert not store.has_tree("eager")
    store.add_tree("lazy", loader=lambda: bad)
    for _ in range(2):  # refused again, not cached as a tree
        with pytest.raises(NotATreeError, match="integers|1-D"):
            store.tree("lazy")

    for target in (LCAQueryService(), ClusterService(config=ClusterConfig(n_replicas=2))):
        with pytest.raises(NotATreeError, match="integers|1-D"):
            target.register_tree("eager", bad)
        target.register_tree("lazy", loader=lambda: bad)
        with pytest.raises(NotATreeError, match="integers|1-D"):
            target.submit_many("lazy", [1], [2])
        target.register_tree("good", [-1, 0, 1])
        tickets = target.submit_many("good", [2], [1])
        target.drain()
        assert target.results(tickets).tolist() == [1]


def test_store_lazy_loader_called_exactly_once():
    calls = []

    def loader():
        calls.append(1)
        return random_attachment_tree(64, seed=5)

    store = ForestStore()
    store.add_tree("lazy", loader=loader)
    assert calls == []
    first = store.tree("lazy")
    second = store.tree("lazy")
    assert len(calls) == 1
    assert first is second


# ----------------------------------------------------------------------
# Hit / miss accounting
# ----------------------------------------------------------------------

def test_fetch_miss_then_hit_accounting():
    registry = IndexRegistry(make_store("a"))
    entry, hit = registry.fetch("a", "lca", GTX980)
    assert not hit
    assert isinstance(entry.artifact, InlabelLCA)
    assert entry.nbytes > 0
    assert entry.build_time_s > 0  # preprocessing was charged on GTX980

    entry2, hit2 = registry.fetch("a", "lca", GTX980)
    assert hit2 and entry2 is entry
    assert (registry.hits, registry.misses, registry.evictions) == (1, 1, 0)
    assert StatsCollector().snapshot(registry=registry).cache_hit_rate == 0.5
    assert registry.bytes_in_use == entry.nbytes
    assert registry.build_time_s == entry.build_time_s


def test_device_spec_selects_algorithm_flavour_and_key():
    registry = IndexRegistry(make_store("a"))
    gpu = registry.fetch("a", "lca", GTX980)[0].artifact
    cpu = registry.fetch("a", "lca", XEON_X5650_SINGLE)[0].artifact
    assert isinstance(gpu, InlabelLCA)
    assert isinstance(cpu, SequentialInlabelLCA)
    # Distinct devices are distinct cache entries.
    assert len(registry) == 2
    assert registry.misses == 2


def test_explicit_sequential_flag_overrides_spec_inference():
    registry = IndexRegistry(make_store("a"))
    # A sequential backend on a multi-core spec must get the sequential
    # algorithm (matching how the dispatcher priced it), not the parallel
    # flavour the spec alone would suggest — and the two flavours on the
    # same spec are distinct cache entries.
    seq = registry.fetch("a", "lca", XEON_X5650_MULTI, sequential=True)[0].artifact
    par = registry.fetch("a", "lca", XEON_X5650_MULTI, sequential=False)[0].artifact
    assert isinstance(seq, SequentialInlabelLCA)
    assert isinstance(par, InlabelLCA)
    assert len(registry) == 2


def test_external_context_is_charged_for_builds():
    registry = IndexRegistry(make_store("a"))
    ctx = ExecutionContext(GTX980)
    entry, hit = registry.fetch("a", "lca", GTX980, ctx=ctx)
    assert not hit
    assert ctx.elapsed == pytest.approx(entry.build_time_s)


@pytest.mark.parametrize("kind", ["tour", "stats", "csr", "bridges", "nope", ""])
def test_only_lca_indexes_are_built(kind):
    """The registry is an LCA index cache: no other kind builds or is cached."""
    registry = IndexRegistry(make_store("a"))
    with pytest.raises(ServiceError, match="unknown artifact kind"):
        registry.fetch("a", kind, GTX980)
    assert len(registry) == 0 and registry.bytes_in_use == 0


#: Fetches the registry refuses, each with the message it raises.
REFUSED_FETCHES = {
    "no spec": (ArtifactKey("a", "lca", GTX980.name, "parallel"), None,
                "no device spec"),
    "unknown kind": (ArtifactKey("a", "tour", GTX980.name, "parallel"), GTX980,
                     "unknown artifact kind"),
    "unknown variant": (ArtifactKey("a", "lca", GTX980.name, "fastest"), GTX980,
                        "unknown artifact variant"),
    "unknown dataset": (ArtifactKey("b", "lca", GTX980.name, "parallel"), GTX980,
                        "unknown tree dataset"),
}


@pytest.mark.parametrize("refusal", sorted(REFUSED_FETCHES))
def test_a_refused_fetch_counts_no_miss(refusal):
    """A miss is a build: a fetch refused before building anything moves no
    counter and caches nothing, however often it is repeated."""
    key, spec, message = REFUSED_FETCHES[refusal]
    registry = IndexRegistry(make_store("a"))
    for _ in range(4):
        with pytest.raises(ServiceError, match=message):
            registry.fetch_by_key(key, spec=spec)
    assert (registry.hits, registry.misses, registry.evictions) == (0, 0, 0)
    assert len(registry) == 0 and registry.bytes_in_use == 0
    assert registry.build_time_s == 0.0


# ----------------------------------------------------------------------
# Byte accounting
# ----------------------------------------------------------------------

def test_artifact_nbytes_matches_structure_accounting():
    """An entry books the packed tables the query reads, and nothing else."""
    registry = IndexRegistry(make_store("a", n=512))
    entry, _ = registry.fetch("a", "lca", GTX980)
    structure = registry.store.index("a").structure
    assert entry.nbytes == registry.bytes_in_use == sum(
        table.nbytes for table in (structure.node_word, structure.node_key,
                                   structure.head_key))
    assert entry.nbytes == 16 * 512 + 8 * structure.head_key.size


def test_artifact_nbytes_resolves_views_to_their_base():
    """Every flavour views the one host index, and books that index's bytes."""
    registry = IndexRegistry(make_store("a", n=300))
    entries = [registry.fetch_by_key(ArtifactKey("a", "lca", GTX980.name, variant),
                                     spec=GTX980)[0]
               for variant in ARTIFACT_BUILDERS]
    index = registry.store.index("a")
    assert [entry.nbytes for entry in entries] == [index.nbytes] * len(ARTIFACT_BUILDERS)
    assert all(entry.artifact.structure is index.structure for entry in entries)


def test_bridge_result_nbytes_agrees_with_artifact_accounting():
    result = find_bridges_tarjan_vishkin(random_connected_graph(150, 60, seed=3))
    assert result.nbytes == sum(value.nbytes for value in vars(result).values()
                                if isinstance(value, np.ndarray))


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------

def _entry_size():
    probe = IndexRegistry(make_store("probe"))
    entry, _ = probe.fetch("probe", "lca", GTX980)
    return entry.nbytes


def test_eviction_is_least_recently_used():
    size = _entry_size()
    registry = IndexRegistry(make_store("a", "b", "c"),
                             capacity_bytes=int(2.5 * size))
    registry.fetch("a", "lca", GTX980)
    registry.fetch("b", "lca", GTX980)
    # Refresh "a" so "b" becomes the least recently used...
    registry.fetch("a", "lca", GTX980)
    # ...then overflow: "b" must be the victim, not "a".
    registry.fetch("c", "lca", GTX980)
    cached = {key.dataset for key in registry.keys()}
    assert cached == {"a", "c"}
    assert registry.evictions == 1
    assert registry.bytes_in_use <= int(2.5 * size)
    # "b" is rebuilt on next access (a fresh miss).
    misses_before = registry.misses
    registry.fetch("b", "lca", GTX980)
    assert registry.misses == misses_before + 1


def test_lru_order_without_refresh_evicts_oldest():
    size = _entry_size()
    registry = IndexRegistry(make_store("a", "b", "c"),
                             capacity_bytes=int(2.5 * size))
    for name in ("a", "b", "c"):
        registry.fetch(name, "lca", GTX980)
    assert {key.dataset for key in registry.keys()} == {"b", "c"}


def test_newest_entry_survives_even_when_oversized():
    size = _entry_size()
    registry = IndexRegistry(make_store("a", "b"), capacity_bytes=size // 4)
    registry.fetch("a", "lca", GTX980)
    registry.fetch("b", "lca", GTX980)
    # Each insertion evicts everything else but is itself retained.
    assert [key.dataset for key in registry.keys()] == ["b"]
    assert registry.evictions == 1


def test_clear_counts_evictions_and_contains():
    registry = IndexRegistry(make_store("a"))
    registry.fetch("a", "lca", GTX980)
    key = ArtifactKey("a", "lca", GTX980.name, "parallel")
    assert key in registry
    registry.clear()
    assert key not in registry
    assert registry.evictions == 1
    assert registry.bytes_in_use == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ServiceError):
        IndexRegistry(make_store("a"), capacity_bytes=0)


# ----------------------------------------------------------------------
# One host index per dataset
# ----------------------------------------------------------------------
def structure_arrays(artifact):
    return [value for value in vars(artifact.structure).values()
            if isinstance(value, np.ndarray)]


def test_a_warmed_default_service_shares_its_tables_across_backends():
    svc = LCAQueryService()
    svc.register_tree("t", random_attachment_tree(512, seed=3))
    svc.warm("t")
    gpu, cpu1 = (svc.registry.fetch_by_key(key)[0].artifact
                 for key in sorted(svc.registry.keys(), key=lambda k: k.variant))
    assert isinstance(cpu1, SequentialInlabelLCA) and isinstance(gpu, InlabelLCA)
    assert all(np.shares_memory(a, b) for a, b in
               zip(structure_arrays(cpu1), structure_arrays(gpu)))


def test_a_warmed_cluster_holds_one_set_of_tables():
    cluster = ClusterService(config=ClusterConfig(n_replicas=4))
    cluster.register_tree("t", random_attachment_tree(512, seed=3), replicas=4)
    cluster.warm("t")
    entries = [replica.registry.fetch_by_key(key)[0]
               for replica in cluster._replicas for key in replica.registry.keys()]
    assert len(entries) == 8
    # Every entry still accounts its full modeled size ...
    assert {entry.nbytes for entry in entries} == {cluster.store.index("t").nbytes}
    # ... but the host holds one copy of the tables.
    assert len({id(entry.artifact.structure) for entry in entries}) == 1


VARIANTS = [
    ("sequential", XEON_X5650_SINGLE),
    ("parallel", GTX980),
    ("parallel", XEON_X5650_MULTI),
    ("smallbatch", XEON_X5650_SINGLE),
]


def direct_build(variant, parents, ctx):
    """What the variant's artifact was built as before the index was shared."""
    if variant == "parallel":
        return InlabelLCA(parents, ctx=ctx)
    if variant == "sequential":
        return SequentialInlabelLCA(parents, ctx=ctx)
    return ARTIFACT_BUILDERS["smallbatch"](build_inlabel_index(parents), ctx=ctx)


@pytest.mark.parametrize("first", [True, False], ids=["builds", "shares"])
@pytest.mark.parametrize("variant, spec", VARIANTS,
                         ids=[f"{v}-{s.name.split(' (')[0]}" for v, s in VARIANTS])
@pytest.mark.parametrize("make", [
    lambda: random_attachment_tree(700, seed=4),
    lambda: grasp_tree(2_048, grasp_for_target_depth(2_048, 200.0), seed=8),
    lambda: np.array([1, -1]),
    lambda: np.array([-1]),
], ids=["shallow", "deep", "two-node", "one-node"])
def test_a_view_is_charged_and_sized_as_its_own_build(make, variant, spec, first):
    """Whether the key builds the host index or reads another key's, its entry
    and a caller's traced context see exactly a direct build on its spec."""
    parents = make()
    store = ForestStore()
    store.add_tree("t", parents)
    registry = IndexRegistry(store)
    other = "sequential" if variant == "parallel" else "parallel"
    if not first:
        registry.fetch_by_key(ArtifactKey("t", "lca", GTX980.name, other),
                              spec=GTX980)
    ctx = ExecutionContext(spec, trace=True)
    entry, hit = registry.fetch_by_key(ArtifactKey("t", "lca", spec.name, variant),
                                       spec=spec, ctx=ctx)
    reference = ExecutionContext(spec, trace=True)
    built = direct_build(variant, parents, reference)
    assert not hit
    assert entry.nbytes == InlabelIndex(built.structure, ()).nbytes
    assert entry.build_time_s == reference.elapsed == ctx.elapsed
    assert ctx.breakdown() == reference.breakdown()
    assert list(ctx.breakdown()) == ["preprocessing"]
    assert ctx.records == reference.records
    assert registry.fetch_by_key(ArtifactKey("t", "lca", spec.name, variant),
                                 spec=spec)[0].build_time_s == entry.build_time_s


def test_the_host_index_lives_while_some_registry_caches_a_view():
    cluster = ClusterService(config=ClusterConfig(n_replicas=2))
    cluster.register_tree("t", random_attachment_tree(256, seed=5), replicas=2)
    cluster.warm("t")
    index = weakref.ref(cluster.store.index("t"))
    first, second = (replica.registry for replica in cluster._replicas)
    first.clear()
    gc.collect()
    assert index() is cluster.store.index("t")  # the second replica reads it
    second.evict(second.keys()[0])
    gc.collect()
    assert index() is not None
    second.clear()
    gc.collect()
    assert index() is None
    # A miss after that builds it again, once, for every registry.
    cluster.warm("t")
    tables = {id(r.registry.fetch_by_key(k)[0].artifact.structure)
              for r in cluster._replicas for k in r.registry.keys()}
    assert len(tables) == 1
