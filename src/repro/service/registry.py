"""Dataset store and LRU-cached index registry for the serving subsystem.

A production query server cannot afford to rebuild an Euler tour or the
Inlabel tables on every request: preprocessing costs milliseconds while a
query costs nanoseconds.  This module therefore separates the two concerns:

* :class:`ForestStore` owns the *raw* named datasets — trees as parent
  arrays — registered either eagerly or through a lazy zero-argument loader
  (so a registry over hundreds of datasets does not materialize them all up
  front) — and each tree's host Inlabel index, built once however many
  registries, replicas and backends read it;
* :class:`IndexRegistry` owns the *derived* artifacts — LCA indexes, the one
  artifact kind the service reads — made lazily on first use as views over
  that index, keyed by ``(dataset, kind, device, variant)`` and held in a
  byte-accounted LRU cache with optional capacity-driven eviction.

Builds are charged to an :class:`~repro.device.ExecutionContext` on the
artifact's device, so the modeled preprocessing cost of a cache miss is
available to the service layer (a cold dataset's first batch pays for its own
index build, exactly like a real serving system warming a cache).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from weakref import WeakValueDictionary

import numpy as np

from ..boundary import count, optional, parent_ids
from ..device import DeviceSpec, ExecutionContext
from ..errors import ServiceError
from ..graphs.trees import validate_parents
from ..lca.artifacts import ARTIFACT_BUILDERS
from ..lca.inlabel import InlabelIndex, build_inlabel_index

__all__ = [
    "ArtifactKey",
    "CacheEntry",
    "ForestStore",
    "IndexRegistry",
    "artifact_nbytes",
]


def artifact_nbytes(obj: object) -> int:
    """Recursively sum the ``nbytes`` of every NumPy array reachable from ``obj``.

    Walks dataclass fields, instance ``__dict__`` attributes, dicts, lists and
    tuples; every distinct array buffer is counted once — views are resolved
    to their base array, so an artifact holding both an array and slices of
    it is not double-counted.  Non-array leaves contribute nothing — the
    arrays utterly dominate the footprint of every artifact this registry
    caches.
    """
    seen: set = set()
    buffers: set = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if item is None or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in buffers:
                buffers.add(id(base))
                total += int(base.nbytes)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total


@dataclass(frozen=True)
class ArtifactKey:
    """Cache key: which derived artifact of which dataset on which device.

    ``variant`` distinguishes artifacts of the same kind on the same device:
    for ``"lca"`` it is a key of :data:`~repro.lca.artifacts.ARTIFACT_BUILDERS`
    (``"sequential"``, ``"parallel"``, ``"smallbatch"``), and the entry holds
    what that builder returned — an object with ``n`` and
    ``query(xs, ys, *, ctx=None)``.  Index artifacts are per-backend: two
    backends serving the same dataset each cache their own view of its index.
    """

    dataset: str
    kind: str
    device: str
    variant: str = ""
    # Probed once per served batch: hash the four strings once, not per probe.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.dataset, self.kind, self.device, self.variant)))

    def __hash__(self) -> int:
        return self._hash


@dataclass
class CacheEntry:
    """One cached artifact with its accounting metadata."""

    key: ArtifactKey
    artifact: Any
    nbytes: int
    build_time_s: float
    #: The host index the artifact views, kept alive while the entry is cached.
    index: InlabelIndex = field(repr=False)
    hits: int = 0


class ForestStore:
    """Named raw datasets: trees as parent arrays, and their Inlabel indexes.

    Datasets can be registered eagerly (pass the data) or lazily (pass a
    zero-argument ``loader``); lazy datasets are materialized once on first
    access and memoized.  :meth:`index` builds a tree's host index once and
    holds it weakly, so capacity eviction still frees it.
    """

    def __init__(self) -> None:
        self._trees: Dict[str, Optional[np.ndarray]] = {}
        self._indexes: "WeakValueDictionary[str, InlabelIndex]" = WeakValueDictionary()
        self._loaders: Dict[str, Tuple[Callable[[], object], bool]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_tree(self, name: str, parents: Optional[np.ndarray] = None, *,
                 loader: Optional[Callable[[], np.ndarray]] = None,
                 validate: bool = False) -> None:
        """Register a tree dataset, either eagerly or via a lazy loader.

        With ``validate=True`` the parent array is checked with
        :func:`~repro.graphs.trees.validate_parents` — immediately for an
        eager registration, at materialization time for a lazy one.  Either
        way the array passes :data:`repro.boundary.parent_ids` first.
        """
        if not name:
            raise ServiceError("dataset name must be non-empty")
        if name in self._trees:
            raise ServiceError(f"dataset {name!r} is already registered")
        if (parents is None) == (loader is None):
            raise ServiceError("pass exactly one of parents= or loader=")
        if parents is not None:
            parents = parent_ids(parents)
            if validate:
                validate_parents(parents)
            self._trees[name] = parents
        else:
            self._trees[name] = None
            self._loaders[name] = (loader, validate)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def has_tree(self, name: str) -> bool:
        """Whether ``name`` is a registered tree dataset."""
        return name in self._trees

    @property
    def names(self) -> List[str]:
        """All registered dataset names, in registration order."""
        return list(self._trees)

    def tree(self, name: str) -> np.ndarray:
        """The parent array of tree dataset ``name`` (materializing it if lazy)."""
        if name not in self._trees:
            raise ServiceError(f"unknown tree dataset {name!r}")
        if self._trees[name] is None:
            # The loader is removed only after it succeeds (and the loaded
            # array passes validation when requested), so a transient loader
            # failure leaves the dataset retryable, not broken.
            loader, validate = self._loaders[name]
            parents = parent_ids(loader())
            if validate:
                validate_parents(parents)
            self._trees[name] = parents
            del self._loaders[name]
        return self._trees[name]  # type: ignore[return-value]

    def index(self, name: str) -> InlabelIndex:
        """The host Inlabel index of tree ``name``: built on first use, then
        shared by every registry over this store for as long as one of them
        caches a view of it."""
        index = self._indexes.get(name)
        if index is None:
            index = self._indexes[name] = build_inlabel_index(self.tree(name))
        return index


class IndexRegistry:
    """Byte-accounted LRU cache of derived artifacts over a :class:`ForestStore`.

    Parameters
    ----------
    store:
        The raw datasets the artifacts are derived from.
    capacity_bytes:
        Optional cache capacity.  After every insertion, least-recently-used
        entries are evicted until the accounted bytes fit; the entry just
        inserted is never evicted (a single artifact larger than the capacity
        is served but not retained alongside anything else).  ``None`` means
        unbounded.
    """

    def __init__(self, store: ForestStore, *,
                 capacity_bytes: Optional[int] = None) -> None:
        self.store = store
        self.capacity_bytes = optional(count)(capacity_bytes, "capacity_bytes")
        self._cache: "OrderedDict[ArtifactKey, CacheEntry]" = OrderedDict()
        self._bytes_in_use = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._build_time_s = 0.0
        #: Optional observability hook, called as ``hook(event, key, value)``
        #: with ``("load", key, modeled build seconds)`` after each miss
        #: build and ``("evict", key, freed bytes)`` after each eviction.
        #: The service layer wires this to the attached trace recorder.
        self.event_hook: Optional[Callable[[str, ArtifactKey, float], None]] = None

    # ------------------------------------------------------------------
    # Builder
    # ------------------------------------------------------------------
    def _build(self, key: ArtifactKey, ctx: ExecutionContext) -> CacheEntry:
        if key.kind != "lca":
            raise ServiceError(
                f"unknown artifact kind {key.kind!r}; the registry builds 'lca' "
                f"indexes only")
        view = ARTIFACT_BUILDERS.get(key.variant)
        if view is None:
            raise ServiceError(
                f"unknown artifact variant {key.variant!r}; "
                f"known: {sorted(ARTIFACT_BUILDERS)}")
        index = self.store.index(key.dataset)
        before = ctx.elapsed
        artifact = view(index, ctx=ctx)
        return CacheEntry(key=key, artifact=artifact,
                          nbytes=artifact_nbytes(artifact),
                          build_time_s=ctx.elapsed - before, index=index)

    # ------------------------------------------------------------------
    # Cache interface
    # ------------------------------------------------------------------
    def fetch(self, dataset: str, kind: str, spec: DeviceSpec,
              *, ctx: Optional[ExecutionContext] = None,
              sequential: Optional[bool] = None) -> Tuple[CacheEntry, bool]:
        """Return ``(entry, hit)`` for an artifact, building it on a miss.

        On a miss the build is charged to ``ctx`` when given, otherwise to a
        fresh private context on ``spec``; either way the entry records the
        modeled build time so callers can account cold-start latency.

        ``kind`` is ``"lca"`` (anything else raises :class:`ServiceError`);
        ``sequential`` selects the Inlabel flavour (the ``"sequential"`` /
        ``"parallel"`` variant); when omitted it is
        inferred from the spec (single-core CPU → sequential).  This is the
        entry point for callers holding a device spec.  The serving layer
        derives its keys from :attr:`Backend.variant <.dispatch.Backend.
        variant>` in ``LCAQueryService._artifact_key``, and comes in through
        :meth:`fetch_by_key`; warm a service with ``LCAQueryService.warm``,
        not with a loop over this method.
        """
        if sequential is None:
            sequential = spec.kind == "cpu" and spec.cores == 1
        variant = "sequential" if sequential else "parallel"
        return self.fetch_by_key(ArtifactKey(dataset, kind, spec.name, variant),
                                 spec=spec, ctx=ctx)

    def fetch_by_key(self, key: ArtifactKey, *, spec: Optional[DeviceSpec] = None,
                     ctx: Optional[ExecutionContext] = None
                     ) -> Tuple[CacheEntry, bool]:
        """Keyed fast path of :meth:`fetch` for callers that hold a prebuilt key.

        The service layer memoizes one :class:`ArtifactKey` per
        (dataset, backend) pair, so its per-batch cache lookup is a single
        dict probe with no key construction or variant resolution.  ``spec``
        is only needed on a miss (to build and charge the artifact), so it
        must be passed whenever the entry might not be cached.
        """
        entry = self._cache.get(key)
        if entry is not None:
            self.credit_hits(entry, 1)
            return entry, True

        self._misses += 1
        if spec is None:
            raise ServiceError(
                f"artifact {key} is not cached and no device spec was given "
                f"to build it"
            )
        entry = self._build(key, ctx if ctx is not None else ExecutionContext(spec))
        self._cache[key] = entry
        self._bytes_in_use += entry.nbytes
        self._build_time_s += entry.build_time_s
        if self.event_hook is not None:
            self.event_hook("load", key, float(entry.build_time_s))
        self._evict_over_capacity(keep=key)
        return entry, False

    def credit_hits(self, entry: CacheEntry, copies: int) -> None:
        """Count ``copies`` more hits on the registry and on cached ``entry``.

        The twin of :meth:`AnswerCache.credit_hits <.cache.AnswerCache.credit_hits>`
        (one fetch a lane for a span's batches); like a hit, it moves
        ``entry`` to the recent end of the LRU order."""
        self._hits += copies
        entry.hits += copies
        self._cache.move_to_end(entry.key)

    def _evict_over_capacity(self, keep: ArtifactKey) -> None:
        if self.capacity_bytes is None:
            return
        while self._bytes_in_use > self.capacity_bytes and len(self._cache) > 1:
            victim_key = next(k for k in self._cache if k != keep)
            self.evict(victim_key)

    def evict(self, key: ArtifactKey) -> None:
        """Drop one cached artifact (a no-op if it is not cached)."""
        entry = self._cache.pop(key, None)
        if entry is not None:
            self._bytes_in_use -= entry.nbytes
            self._evictions += 1
            if self.event_hook is not None:
                self.event_hook("evict", key, float(entry.nbytes))

    def clear(self) -> None:
        """Drop every cached artifact (counted as evictions)."""
        for key in list(self._cache):
            self.evict(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> List[ArtifactKey]:
        """Cached keys from least- to most-recently used."""
        return list(self._cache)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def bytes_in_use(self) -> int:
        """Accounted bytes of all cached artifacts."""
        return self._bytes_in_use

    @property
    def hits(self) -> int:
        """Number of cache hits so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of cache misses (i.e. artifact builds) so far."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries evicted so far."""
        return self._evictions

    @property
    def build_time_s(self) -> float:
        """Total modeled time spent building artifacts on misses."""
        return self._build_time_s

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before the first lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        cap = "unbounded" if self.capacity_bytes is None else f"{self.capacity_bytes}B"
        return (f"IndexRegistry(entries={len(self._cache)}, "
                f"bytes={self._bytes_in_use}, capacity={cap}, "
                f"hit_rate={self.hit_rate:.2f})")
