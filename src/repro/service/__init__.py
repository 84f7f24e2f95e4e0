"""Batched query-serving subsystem (beyond the paper: Fig. 6 as a system).

The paper's batch-size experiment shows GPU graph queries only pay off in
bulk; this subpackage turns that observation into a serving architecture:

* :class:`~repro.service.registry.ForestStore` / \
  :class:`~repro.service.registry.IndexRegistry` — named datasets with
  lazily built, byte-accounted, LRU-evicted index artifacts keyed by
  ``(dataset, kind, device)``;
* :class:`~repro.service.scheduler.MicroBatchScheduler` — coalesces single
  queries into batches under a max-size / max-wait
  :class:`~repro.service.scheduler.BatchPolicy`, on a deterministic
  :class:`~repro.service.clock.SimulatedClock`; storage is columnar
  (pending queries live in preallocated parallel NumPy buffers, flushes are
  zero-copy slices) and ``submit_block`` admits whole arrival blocks with
  array arithmetic;
* :class:`~repro.service.dispatch.CostModelDispatcher` — prices every batch
  on each candidate :class:`~repro.service.dispatch.Backend` with the device
  roofline model and picks the cheapest (CPU for singletons, GPU for bulk);
  under the skew-aware path it prices the batch's *unique cache-miss* count,
  so key skew moves the CPU/GPU crossover;
* :class:`~repro.service.cache.AnswerCache` — the skew-aware fast path's
  exact, bounded, vectorized per-pair answer cache (off by default; enabled
  with ``answer_cache_bytes=``), with intra-batch dedup provided by
  :mod:`repro.lca.dedup`'s canonical uint64 pair packing;
* :class:`~repro.service.stats.ServiceStats` — throughput, p50/p99 modeled
  latency, batch-size histogram, flush-trigger and cache accounting;
* :class:`~repro.service.service.LCAQueryService` — the façade wiring all of
  the above together; tickets index the columns of one growable
  :class:`~repro.service.tickets.TicketTable` (answers, latencies), so
  ``submit_many`` admission and ``results``/``latencies`` resolution are
  vectorized end to end (``submit`` is the separate scalar path for
  one-query-at-a-time callers); every knob arrives through one
  :class:`~repro.service.config.ServiceConfig` passed as ``config=``;
* :class:`~repro.service.cluster.ClusterService` — N replica workers behind
  one front door: rendezvous-hash placement with replication
  (:func:`~repro.service.routing.rendezvous`), pluggable load-aware routing
  (:class:`~repro.service.routing.Router` policies), cluster-wide admission
  control raising the typed :class:`~repro.errors.Overloaded` error, and
  :class:`~repro.service.cluster.ClusterStats`: a ``ServiceStats`` merged
  over the workers by a single node's code, plus load and shed counters;
* :class:`~repro.service.faults.FaultInjector` — deterministic, scheduled
  fault injection (replica kills, recoveries, slowdowns, transient batch
  failures, live membership changes) on the shared simulated clock.  The
  cluster retries stranded work onto surviving copies with exact latency
  accounting, optionally hedges straggling batches (``hedge_delay_s=``),
  and raises the typed :class:`~repro.errors.ReplicaDown` when no copy
  survives — no admitted query is ever silently lost.
"""

from ..errors import Overloaded, ReplicaDown
from .cache import (
    ANSWER_CACHE_PROBE_COST,
    AnswerCache,
    answer_cache_probe_time,
)
from .clock import SimulatedClock, WallClock
from .cluster import ClusterService, ClusterStats
from .config import ClusterConfig, ServiceConfig
from .dispatch import (
    CPU_SEQUENTIAL_BACKEND,
    DEFAULT_BACKENDS,
    GPU_BATCH_BACKEND,
    Backend,
    CostModelDispatcher,
    dispatcher_for,
    estimate_batch_query_time,
    known_backend_keys,
    load_calibration_profile,
    make_backend,
)
from .faults import FAULT_ACTIONS, FaultEvent, FaultInjector
from .registry import ArtifactKey, CacheEntry, ForestStore, IndexRegistry
from .routing import (
    ROUTER_POLICIES,
    ConsistentHashRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    make_router,
    rendezvous,
    stable_hash,
)
from .scheduler import BatchPolicy, FlushedBatch, MicroBatchScheduler
from .service import LCAQueryService
from .stats import ServiceStats, StatsCollector, batch_size_bucket

__all__ = [
    "SimulatedClock",
    "ForestStore",
    "IndexRegistry",
    "ArtifactKey",
    "CacheEntry",
    "BatchPolicy",
    "FlushedBatch",
    "MicroBatchScheduler",
    "Backend",
    "CPU_SEQUENTIAL_BACKEND",
    "GPU_BATCH_BACKEND",
    "DEFAULT_BACKENDS",
    "make_backend",
    "known_backend_keys",
    "estimate_batch_query_time",
    "CostModelDispatcher",
    "dispatcher_for",
    "load_calibration_profile",
    "WallClock",
    "ServiceStats",
    "StatsCollector",
    "batch_size_bucket",
    "LCAQueryService",
    # typed configuration surface
    "ServiceConfig",
    "ClusterConfig",
    # skew-aware fast path
    "AnswerCache",
    "ANSWER_CACHE_PROBE_COST",
    "answer_cache_probe_time",
    # cluster serving
    "ClusterService",
    "ClusterStats",
    "Overloaded",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "ConsistentHashRouter",
    "ROUTER_POLICIES",
    "make_router",
    "rendezvous",
    "stable_hash",
    # fault tolerance + elasticity
    "FaultInjector",
    "FaultEvent",
    "FAULT_ACTIONS",
    "ReplicaDown",
]
