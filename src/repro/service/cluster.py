"""Sharded serving cluster: replica workers, load-aware routing, backpressure.

:class:`ClusterService` fronts N replica workers, each a full
:class:`~repro.service.service.LCAQueryService` with its own
:class:`~repro.service.scheduler.MicroBatchScheduler` per dataset, its own
:class:`~repro.service.dispatch.CostModelDispatcher` (and therefore its own
CPU/GPU backend pair), and its own slice of the cluster's index-cache byte
budget.  On top of the workers the cluster adds the three things a single
node cannot provide:

* **replication + placement** — a dataset registered with ``replicas=k`` is
  pinned onto the ``k`` active workers ranked first by rendezvous hashing
  (:func:`~repro.service.routing.rendezvous`), so hot datasets exist in
  multiple index caches and cold ones cost one;
* **load-aware routing** — a pluggable
  :class:`~repro.service.routing.Router` picks which copy serves each query
  or column block (round-robin, least-outstanding-work, or consistent-hash
  for maximal cache affinity);
* **admission control** — an optional cluster-wide bound on queued queries.
  Submissions past the bound are rejected with the typed
  :class:`~repro.errors.Overloaded` error and counted into the cluster's
  shed rate, so overload is an explicit, observable contract instead of an
  unbounded queue;
* **fault tolerance + elasticity** — an optional seeded
  :class:`~repro.service.faults.FaultInjector` drives replica kills,
  recoveries, slowdowns and transient batch failures at exact simulated
  instants.  Batches stranded on a failed replica are re-dispatched to a
  surviving copy (capped retries; the typed
  :class:`~repro.errors.ReplicaDown` fires when no copy survives), so no
  admitted query is ever silently lost.  A configurable ``hedge_delay_s``
  re-issues straggling batches to a second copy and takes the first
  completion.  :meth:`ClusterService.add_replica` and
  :meth:`ClusterService.retire_replica` grow and shrink the cluster live,
  with rendezvous re-placement and drain-before-retire semantics.

Time: every worker runs on its own :class:`SimulatedClock` cursor along the
*same* simulated time axis; the cluster's own clock is the frontier (the
latest arrival admitted anywhere).  Because every flush deadline, queueing
delay and completion is computed from explicit timestamps, a worker whose
cursor lags simply materializes its (identical) flushes at its next event —
the modeled batches, latencies and statistics are bit-reproducible functions
of the submitted trace, exactly as on a single node.  With one replica, a
``submit_many`` stream (or ``submit`` with the answer cache off) is bit-identical
to a plain :class:`LCAQueryService`'s; with the cache on, ``submit`` here memoizes
at the front door and there does not ("Admission contract", docs/architecture.md).

The columnar fast path survives sharding end to end: a block submitted via
:meth:`ClusterService.submit_many` is validated once with one fused bounds
check, ticketed, routed with one vectorized policy call, cut into
per-replica sub-blocks with one counting sort (each sub-block preserves
arrival order), and admitted through each worker's
:meth:`~repro.service.service.LCAQueryService.admit` under its own cluster
tickets.

Tickets: the cluster builds one :class:`~repro.service.tickets.TicketTable`
and hands it to every worker it constructs, as it hands them the store.  A
worker answers into it under the ticket the client holds; a result is read
back from that one table, and failover re-admits a stranded query under the
same ticket, its origin read off the ``debt`` column.  A survivor may then
queue a re-admitted older ticket behind newer ones: from the first
re-admission on, a worker checks a batch's ticket order before a slice write.

Stats: :meth:`ClusterService.stats` is the workers' snapshots merged by the
code a single node's snapshot runs (:meth:`ServiceStats.merge`), so a
:class:`ClusterStats` *is* a :class:`~repro.service.stats.ServiceStats`
plus the cluster's own fields; a 1-replica cluster's shared fields equal a
single node's on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..boundary import count, instant, int_scalar, replica_ids
from ..errors import Overloaded, ReplicaDown, ServiceError
from ..obs.events import (
    EV_FAULT,
    EV_HEDGE,
    EV_MEMBERSHIP,
    EV_RETRY,
    EV_SCALE,
    EV_SHED,
    TraceRecorder,
)
from .cache import MIN_CACHE_BYTES
from .clock import SimulatedClock
from .config import ClusterConfig
from .dispatch import (
    CostModelDispatcher,
    dispatcher_for,
    load_calibration_profile,
)
from .faults import FaultEvent, FaultInjector
from .registry import ForestStore
from .routing import Router, make_router, rendezvous
from .scheduler import FlushedBatch
from .service import FrontDoor, LCAQueryService
from .stats import ServiceStats

__all__ = ["ClusterService", "ClusterStats"]

#: Per-query cap on failover re-dispatches before ``ReplicaDown``.
MAX_RETRIES = 3


@dataclass(frozen=True)
class ClusterStats(ServiceStats):
    """A :class:`~repro.service.stats.ServiceStats` merged over the replicas.

    Every inherited field is :meth:`ServiceStats.merge` over the workers'
    collectors, registries and answer caches — the code a single node's
    snapshot runs — so latency percentiles are exact over the merged
    per-query latencies, not stitched from per-replica percentiles.  The
    one exception is ``queries_submitted``: the cluster's admitted count
    (tickets issued), which a failover re-admission does not count twice.
    The fields below are the cluster's own.
    """

    #: How many replica workers the cluster runs.
    n_replicas: int
    #: Router policy name the cluster was serving with.
    router_policy: str
    #: Queries offered = submitted (admitted) + shed by admission control.
    queries_offered: int
    queries_shed: int
    #: Fraction of offered queries rejected with :class:`Overloaded`.
    shed_rate: float
    #: Answered-query count per replica, and max/mean of that distribution
    #: (1.0 = perfectly balanced; idle replicas inflate it; 0.0 before any
    #: answer).
    per_replica_answered: Tuple[int, ...]
    load_imbalance: float
    #: Per-worker snapshots, in replica-id order.
    replicas: Tuple[ServiceStats, ...]
    #: Fault-tolerance accounting — all zero on a fault-free, hedge-free run.
    #: ``queries_retried`` counts re-dispatches of admitted queries after a
    #: replica kill or transient batch failure, twice for one retried twice.
    queries_retried: int = 0
    #: Hedged duplicate dispatches issued, and how many finished before the
    #: original (and therefore set the query's completion time).
    hedges_issued: int = 0
    hedges_won: int = 0
    #: Fault-injector events applied (kills, recoveries, slowdowns,
    #: transients, membership changes driven by the schedule).
    faults_injected: int = 0
    #: Live topology changes (:meth:`ClusterService.add_replica` /
    #: :meth:`ClusterService.retire_replica`), however triggered.
    membership_events: int = 0
    #: Provisioned capacity on the simulated clock: each replica accrues
    #: from its construction (or :meth:`ClusterService.add_replica`) until
    #: its retirement (or the snapshot instant).  Killed-but-not-retired
    #: replicas still accrue — they are provisioned even while down.  This
    #: is the cost denominator reactive autoscaling is charged by.
    replica_seconds: float = 0.0

    def format(self) -> str:
        """The single-node block between the cluster's own lines."""
        answered = " ".join(str(c) for c in self.per_replica_answered)
        lines = [
            f"replicas           : {self.n_replicas} "
            f"({self.router_policy} router)",
            super().format(),
            f"shed               : {self.queries_shed} "
            f"({self.shed_rate:.1%} of {self.queries_offered} offered)",
            f"per-replica load   : [{answered}] "
            f"(imbalance {self.load_imbalance:.2f}x)",
        ]
        if (
            self.faults_injected
            or self.queries_retried
            or self.hedges_issued
            or self.membership_events
        ):
            lines.append(
                f"fault tolerance    : {self.faults_injected} faults applied, "
                f"{self.queries_retried} queries retried, "
                f"{self.hedges_won}/{self.hedges_issued} hedges won, "
                f"{self.membership_events} membership changes"
            )
        return "\n".join(lines)


class ClusterService(FrontDoor):
    """Serves LCA queries across N replica workers behind one front door.

    Parameters
    ----------
    config:
        A :class:`~repro.service.config.ClusterConfig` carrying every
        serializable knob in one value — replica count, batching policy,
        router policy name, the cluster-wide cache budgets (split evenly
        across the workers; the answer caches' bytes come out of
        ``capacity_bytes`` when both are set), dedup, the ``max_pending``
        admission bound and the hedging delay.
        Defaults to ``ClusterConfig()``; exposed as :attr:`config`, and the
        one place the cluster reads its knobs from.
    dispatcher_factory:
        Zero-argument callable building each worker's dispatcher (called
        once per replica so workers never share memoization state); by
        default each worker gets the dispatcher ``config`` describes.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector` whose
        schedule is applied as simulated time passes.  A cluster with an
        *empty* injector behaves bit-identically to one with ``None`` —
        all liveness state lives here, the injector only carries the
        schedule.

    The registered datasets live in one
    :class:`~repro.service.registry.ForestStore`, :attr:`store`, shared by
    every worker: each copy serves the same parent array, loaded at most
    once; placement only decides which workers build its index and get its
    traffic.

    Usage
    -----
    >>> import numpy as np
    >>> from repro.graphs.generators import random_attachment_tree
    >>> from repro.service import ClusterConfig, ClusterService
    >>> cluster = ClusterService(config=ClusterConfig(n_replicas=4))
    >>> placement = cluster.register_tree("t", random_attachment_tree(64, seed=0),
    ...                                   replicas=4)
    >>> tickets = cluster.submit_many("t", [1, 3, 5], [2, 4, 6],
    ...                               at=np.arange(3) * 1e-6)
    >>> cluster.drain()
    >>> answers = cluster.results(tickets)
    """

    def __init__(
        self,
        *,
        config: Optional[ClusterConfig] = None,
        dispatcher_factory: Optional[Callable[[], CostModelDispatcher]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if config is None:
            config = ClusterConfig()
        # The one ticket table: every worker answers into it (see _worker).
        super().__init__(ForestStore(), SimulatedClock())
        self.config = config
        n_workers = config.n_replicas
        self.router: Router = make_router(config.router)
        if dispatcher_factory is None:
            # A measured profile is loaded once and shared by every replica's
            # dispatcher (they price identically by construction).
            profile = (None if config.calibration_path is None
                       else load_calibration_profile(config.calibration_path))
            dispatcher_factory = partial(dispatcher_for, config.backends,
                                         profile=profile)
        index_budget = config.capacity_bytes
        if config.answer_cache_bytes is None:
            cache_slice = None
        else:
            cache_bytes = config.answer_cache_bytes
            if cache_bytes < n_workers * MIN_CACHE_BYTES:
                raise ServiceError(
                    f"answer_cache_bytes={cache_bytes} is too small "
                    f"to give each of {n_workers} replicas the "
                    f"{MIN_CACHE_BYTES}-byte cache minimum"
                )
            if index_budget is not None:
                # The answer caches are carved out of the cluster-wide byte
                # budget; the index registries split what remains.
                index_budget -= cache_bytes
                if index_budget <= 0:
                    raise ServiceError(
                        f"answer_cache_bytes={cache_bytes} consumes "
                        f"the whole capacity_bytes={config.capacity_bytes} "
                        f"budget; nothing is left for the index caches"
                    )
            cache_slice = cache_bytes // n_workers
        if index_budget is None:
            slice_bytes = None
        else:
            slice_bytes = max(1, index_budget // n_workers)
        # The per-worker config (cluster budgets already carved into
        # per-replica slices); add_replica() mints from it, and
        # apply_tuning() keeps it current so late joiners arrive tuned.
        self._worker_config = config.service_config(
            capacity_bytes=slice_bytes, answer_cache_bytes=cache_slice
        )
        # Fault tolerance + elasticity.  The worker construction parameters
        # are kept so add_replica() can mint identically-budgeted workers;
        # per-replica byte slices are fixed at construction and are not
        # re-split when the cluster grows or shrinks.
        self._dispatcher_factory = dispatcher_factory
        self._replicas: Tuple[LCAQueryService, ...] = tuple(
            self._worker() for _ in range(n_workers)
        )
        self._placement: Dict[str, Tuple[int, ...]] = {}
        self._shed = 0
        self.fault_injector = fault_injector
        self._alive: List[bool] = [True] * n_workers
        self._retired: List[bool] = [False] * n_workers
        # Replica-second accounting: birth instant per replica id, and the
        # retirement instant once retired (None while provisioned).
        self._born_at: List[float] = [self.clock.now] * n_workers
        self._retired_at: List[Optional[float]] = [None] * n_workers
        self._transient: List[int] = [0] * n_workers
        self._failed: List[Tuple[int, str, FlushedBatch]] = []
        self._parked: List[
            Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._retried = 0
        self._hedges_issued = 0
        self._hedges_won = 0
        self._faults_applied = 0
        self._membership_events = 0
        self._tree_replicas: Dict[str, Optional[int]] = {}
        for i, worker in enumerate(self._replicas):
            self._install_hooks(i, worker)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observer(self, observer: Optional[TraceRecorder]) -> None:
        """Attach one trace recorder to the whole cluster (``None`` detaches).

        Every replica worker emits into the shared recorder with its replica
        index stamped on each event (so batch ids stay globally unique and
        traces merge without relabeling); shed decisions — which belong to
        the cluster front door, not to any worker — are recorded with
        ``replica=-1``.
        """
        self._observer = observer
        for i, replica in enumerate(self._replicas):
            replica.attach_observer(observer, replica=i)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        """Number of replica workers.

        >>> ClusterService(config=ClusterConfig(n_replicas=4)).n_replicas
        4
        """
        return len(self._replicas)

    @property
    def n_active(self) -> int:
        """Replicas not yet retired (alive or temporarily killed).

        >>> ClusterService(config=ClusterConfig(n_replicas=4)).n_active
        4
        """
        return sum(1 for retired in self._retired if not retired)

    @property
    def n_live(self) -> int:
        """Replicas currently able to serve (active and not killed).

        >>> ClusterService(config=ClusterConfig(n_replicas=4)).n_live
        4
        """
        return sum(1 for alive in self._alive if alive)

    @property
    def replicas(self) -> Tuple[LCAQueryService, ...]:
        """The replica workers, in replica-id order (read-only tuple).

        >>> workers = ClusterService(config=ClusterConfig(n_replicas=2)).replicas
        >>> len(workers)
        2
        """
        return self._replicas

    #: The name a node's ``(self,)`` shares, so callers need not ask which
    #: front door they hold.
    workers = replicas

    # The layer tracer (``benchmarks/layers/trace.py``) patches methods in a
    # named class's own namespace, so the readers it times are bound here too.
    results = FrontDoor.results
    latencies = FrontDoor.latencies

    @property
    def queries_shed(self) -> int:
        """How many queries admission control has refused (never ticketed)."""
        return self._shed

    def placement(self, dataset: str) -> Tuple[int, ...]:
        """Replica ids holding ``dataset``, in placement order.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=4))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]), on=[1, 3])
        >>> cluster.placement("t")
        (1, 3)
        """
        return self._copies(dataset)

    def register_tree(
        self,
        name: str,
        parents: Optional[np.ndarray] = None,
        *,
        loader: Optional[Callable[[], np.ndarray]] = None,
        validate: bool = False,
        replicas: Optional[int] = None,
        on: Optional[Sequence[int]] = None,
    ) -> Tuple[int, ...]:
        """Register a tree on ``replicas`` workers; returns the placement.

        Placement defaults to the name's first ``replicas`` (default 1)
        active replicas by :func:`~repro.service.routing.rendezvous` rank;
        ``on`` pins explicit replica ids instead (not both).  ``replicas=0``
        means *every active replica, tracked*: the copy count follows
        membership, so a replica added later (e.g. by reactive autoscaling)
        starts serving the dataset, and a retired one stops.  The tree goes
        into :attr:`store` once, however many copies exist, so a lazy
        ``loader`` runs once and every copy shares the loaded array.  A
        refused registration changes neither the store nor the placement.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=4))
        >>> cluster.register_tree("pinned", np.array([-1, 0]), on=[0, 2])
        (0, 2)
        >>> hashed = cluster.register_tree("hashed", np.array([-1, 0]),
        ...                                replicas=2)
        >>> len(hashed)
        2
        """
        if on is not None and replicas is not None:
            raise ServiceError("pass replicas= or on=, not both")
        if on is not None:
            copies = tuple(dict.fromkeys(replica_ids(on).tolist()))
            if not copies:
                raise ServiceError("on= must name at least one replica")
            bad = [i for i in copies if not 0 <= i < self.n_replicas]
            if bad:
                raise ServiceError(
                    f"replica ids {bad} out of range for a "
                    f"{self.n_replicas}-replica cluster"
                )
            gone = [i for i in copies if self._retired[i]]
            if gone:
                raise ServiceError(f"replica ids {gone} are retired")
        else:
            replicas = count(1 if replicas is None else replicas, "replicas", least=0)
            if replicas > self.n_active:
                raise ServiceError(
                    f"replicas must be in [0, {self.n_active}], got {replicas}"
                )
            copies = self._hash_place(name, replicas)
        self.store.add_tree(name, parents, loader=loader, validate=validate)
        self._placement[name] = copies
        self._tree_replicas[name] = None if on is not None else replicas
        return copies

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def add_replica(self) -> int:
        """Scale out: add one replica worker live; returns its replica id.

        The newcomer joins at the cluster's current simulated time,
        hash-placed datasets are re-placed (only those whose ranking now
        takes the newcomer move; a displaced copy's built index
        stays in its registry as a warm spare until LRU evicts it), and any
        queries parked with no live copy are re-dispatched to it.  The
        newcomer shares :attr:`store`, so it serves whatever it is placed
        on; index artifacts are *not* shipped: its
        :class:`~repro.service.registry.IndexRegistry` makes its views of the
        store's host index on first use, charged exactly like a cold start.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]), replicas=2)
        >>> cluster.add_replica()
        2
        >>> cluster.n_replicas, cluster.n_live
        (3, 3)
        """
        rid = len(self._replicas)
        worker = self._worker()
        self._replicas = self._replicas + (worker,)
        self._alive.append(True)
        self._retired.append(False)
        self._born_at.append(self.clock.now)
        self._retired_at.append(None)
        self._transient.append(0)
        if self._observer is not None:
            worker.attach_observer(self._observer, replica=rid)
        self._install_hooks(rid, worker)
        self._replace_hashed_datasets()
        self._membership_events += 1
        self.config = self.config.derive(n_replicas=self.n_active)
        if self._observer is not None:
            self._observer.record(
                EV_MEMBERSHIP,
                self.clock.now,
                replica=rid,
                detail=float(self.n_live),
                aux=self._observer.intern("add"),
            )
        self._drain_parked(self.clock.now)
        self._drain_failed()
        return rid

    def retire_replica(self, replica: int) -> None:
        """Scale in: drain a replica, remove it from routing, retire it.

        Drain-before-retire: an alive replica first serves everything it
        still queues (at the cluster frontier), so retirement never loses
        an admitted query; a killed replica's queue was already evicted and
        failed over at kill time.  The replica then leaves the active set,
        hash-placed datasets are re-placed onto the survivors, and pinned
        placements drop the retiree.  Replica ids are never reused, and the
        retiree's answers stay in the cluster's one ticket table.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=3))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]), replicas=2)
        >>> cluster.retire_replica(cluster.placement("t")[0])
        >>> cluster.n_active
        2
        """
        r = int_scalar(replica, ServiceError, "replica")
        if not 0 <= r < len(self._replicas):
            raise ServiceError(f"unknown replica {replica}")
        if self._retired[r]:
            raise ServiceError(f"replica {r} is already retired")
        if self.n_active == 1:
            raise ServiceError("cannot retire the last active replica")
        for name, copies in self._placement.items():
            if self._tree_replicas[name] is None and copies == (r,):
                raise ServiceError(
                    f"cannot retire replica {r}: it holds the only copy of "
                    f"pinned dataset {name!r}"
                )
        worker = self._replicas[r]
        if self._alive[r]:
            worker.sync_to(self.clock.now)
            worker.drain()
            self._drain_failed()
        self._retired[r] = True
        self._alive[r] = False
        self._retired_at[r] = self.clock.now
        for name, copies in list(self._placement.items()):
            if self._tree_replicas[name] is None and r in copies:
                self._placement[name] = tuple(c for c in copies if c != r)
        self._replace_hashed_datasets()
        self._membership_events += 1
        self.config = self.config.derive(n_replicas=self.n_active)
        if self._observer is not None:
            self._observer.record(
                EV_MEMBERSHIP,
                self.clock.now,
                replica=r,
                detail=float(self.n_live),
                aux=self._observer.intern("retire"),
            )

    def scale_to(self, n: int) -> Tuple[int, ...]:
        """Grow or shrink the active replica set to ``n`` workers.

        Growth is repeated :meth:`add_replica` with *warm bring-up*: every
        index artifact the newcomer's placement assigns it is prebuilt
        before the call returns, so traffic routed to a freshly scaled-out
        replica never queues behind a cold index build (a reactive
        scale-out that served its first batches cold would blow the very
        tail it fired to protect).  Shrinkage retires one safe
        victim at a time, re-evaluating safety after each retirement.  The
        victim is chosen warm-spare-aware among the replicas whose removal
        keeps every dataset it holds on at least one other *live* copy
        (a survivor's registry keeps a displaced copy's built index until
        LRU evicts it, so a re-placement back can be free) and never the
        sole copy of a pinned dataset: killed
        replicas retire first (they serve nothing), then the replica with
        the least outstanding queued work, newest id breaking ties.  When
        no victim is safe the call raises
        :class:`~repro.errors.ServiceError` and leaves membership where it
        got to.  Returns the affected replica ids, in order.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]), replicas=0)
        >>> cluster.scale_to(4)
        (2, 3)
        >>> cluster.scale_to(1)
        (3, 2, 1)
        >>> cluster.n_active, cluster.config.n_replicas
        (1, 1)
        """
        n = int_scalar(n, ServiceError, "replica count")
        if n < 1:
            raise ServiceError("cannot scale below one replica")
        if n != self.n_active and self._observer is not None:
            self._observer.record(
                EV_SCALE,
                self.clock.now,
                replica=-1,
                detail=float(n),
                aux=self._observer.intern(
                    "out" if n > self.n_active else "in"
                ),
            )
        changed: List[int] = []
        while self.n_active < n:
            rid = self.add_replica()
            changed.append(rid)
            for name, copies in self._placement.items():
                if rid in copies:
                    self._replicas[rid].warm(name)
        while self.n_active > n:
            victim = self._scale_in_victim()
            if victim is None:
                raise ServiceError(
                    f"cannot scale in below {self.n_active} replicas: no "
                    f"replica can be retired without dropping the last "
                    f"live copy of a dataset"
                )
            self.retire_replica(victim)
            changed.append(victim)
        return tuple(changed)

    def _scale_in_victim(self) -> Optional[int]:
        """The safest replica to retire next, or ``None`` if none is safe.

        A candidate must not hold the sole copy of a pinned dataset, and
        retiring it must leave every dataset it serves with at least one
        other live copy (counted over survivors only — a candidate's own
        liveness does not make it safer to keep).
        """
        if self.n_active <= 1:
            return None
        candidates: List[int] = []
        for r in range(len(self._replicas)):
            if self._retired[r]:
                continue
            safe = True
            for name, copies in self._placement.items():
                if r not in copies:
                    continue
                if self._tree_replicas[name] is None and copies == (r,):
                    safe = False  # sole pinned copy: retire would refuse
                    break
                if not any(
                    self._alive[c] for c in copies if c != r
                ):
                    safe = False  # would drop the last live copy
                    break
            if safe:
                candidates.append(r)
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (
                self._alive[r],           # dead replicas retire first
                self._replicas[r].pending_count() if self._alive[r] else 0,
                -r,                       # newest id breaks ties
            ),
        )

    def replica_seconds(self) -> float:
        """Provisioned replica-seconds accrued so far (simulated clock).

        Each replica accrues from its birth (construction or
        :meth:`add_replica`) until its retirement, or until the cluster's
        current simulated time while still provisioned.  Killed replicas
        accrue — they are paid for even while down.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> cluster.advance_to(1.0)
        >>> cluster.replica_seconds()
        2.0
        """
        now = self.clock.now
        total = 0.0
        for r in range(len(self._replicas)):
            end = self._retired_at[r]
            total += max(0.0, (now if end is None else end) - self._born_at[r])
        return total

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str,
        x: int,
        y: int,
        *,
        at: Optional[float] = None,
    ) -> int:
        """Submit one LCA query through the router; returns a cluster ticket.

        A one-row :meth:`submit_many`: the same validation, fault
        application, liveness filter, admission control and routing, and —
        with the answer cache on — the same front-door memoization.  A bad
        query is rejected at its own call and a submission past
        ``max_pending`` raises :class:`~repro.errors.Overloaded`.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> ticket = cluster.submit("t", 2, 3)
        >>> cluster.drain(); cluster.result(ticket)
        0
        """
        arrival = None if at is None else np.array([instant(at)])
        tickets = self.submit_many(dataset, np.array([x]), np.array([y]), at=arrival)
        return int(tickets[0])

    def submit_many(
        self,
        dataset: str,
        xs: np.ndarray,
        ys: np.ndarray,
        *,
        at: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Submit a column block through the router; returns cluster tickets.

        The columnar fast path end to end: one fused bounds check, one
        vectorized routing decision, and a counting-sort cut into
        per-replica sub-blocks (each an arrival-ordered subsequence admitted
        through the worker's :meth:`LCAQueryService.admit` under its cluster
        tickets, which checks nothing again).

        Error semantics mirror :meth:`LCAQueryService.submit_many`: the
        clean prefix is admitted, then the first offending position raises.
        Admission control additionally caps the prefix at the cluster
        queue's free space — measured at the block's first arrival — and
        raises :class:`~repro.errors.Overloaded` for the remainder; chunked
        submission lets admission observe mid-stream flushes.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> tickets = cluster.submit_many("t", [1, 2], [3, 3],
        ...                               at=np.array([0.0, 1e-6]))
        >>> cluster.drain()
        >>> cluster.results(tickets).tolist()   # LCA(1,3)=1, LCA(2,3)=0
        [1, 0]
        """
        copies = self._copies(dataset)
        # The single-node block path's validator: the same first offender.
        xs, ys, arrivals, stop, error = self._clean_block(dataset, xs, ys, at)
        if stop:
            if self.fault_injector is not None:
                self._apply_faults(float(arrivals[0]))
                copies = self._copies(dataset)
            for replica in self._replicas:
                replica.advance_to(float(arrivals[0]), joining=dataset)
            # Keep the cluster frontier in sync with the workers even if the
            # whole block is subsequently shed by admission control.
            self.clock.advance_to(float(arrivals[0]))
            # Liveness is the only filter: a placement never names a retired
            # replica (pinned placements drop the retiree, hash placements
            # are re-placed).
            live = tuple(c for c in copies if self._alive[c])
            if not live:
                raise ReplicaDown(
                    f"all {len(copies)} copies of dataset {dataset!r} are down",
                    dataset=dataset,
                    queries=int(stop),
                )
            copies = live
        max_pending = self.config.max_pending
        if max_pending is not None and stop:
            pending = self.pending_count()
            free = max_pending - pending
            if stop > free:
                admitted = max(0, free)
                shed = stop - admitted
                self._shed += shed
                if self._observer is not None:
                    self._observer.record(EV_SHED, float(arrivals[0]),
                                          replica=-1, detail=float(shed))
                stop = admitted
                error = Overloaded(
                    f"cluster queue is full (pending={pending}, "
                    f"max_pending={max_pending}); admitted {admitted} "
                    f"of {xs.size} queries, shed {shed}",
                    pending=pending,
                    capacity=max_pending,
                    admitted=admitted,
                    shed=shed,
                )

        first = self._tickets.issue(stop)
        tickets = np.arange(first, first + stop, dtype=np.int64)
        if stop:
            depths = self._outstanding(copies)
            owners = self.router.route_block(dataset, copies, depths, stop)
            for target, sel in self._grouped(owners):
                self._replicas[target].admit(
                    dataset, tickets[sel], xs[sel], ys[sel], arrivals[sel]
                )
            self.clock.advance_to(float(arrivals[stop - 1]))
            self._drain_failed()
        if error is not None:
            raise error
        return tickets

    def warm(self, dataset: str) -> None:
        """Prebuild the LCA index on every copy, for every backend.

        A production cluster warms caches before taking traffic; benchmarks
        call this so steady-state throughput is not diluted by each copy's
        one-time index build (which would otherwise dominate short streams).

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> cluster.warm("t")
        >>> cluster.stats().cache_misses > 0   # indexes were prebuilt
        True
        """
        for c in self._copies(dataset):
            self._replicas[c].warm(dataset)

    def advance_to(self, t: float) -> None:
        """Advance the whole cluster, serving every wait-expired batch.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(
        ...     n_replicas=2, max_batch_size=8, max_wait_s=1e-3))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> ticket = cluster.submit("t", 1, 2, at=0.0)
        >>> cluster.advance_to(2e-3)    # past the 1 ms wait deadline
        >>> cluster.result(ticket)
        0
        """
        self._apply_faults(instant(t))
        t = self.clock.advance_to(t)
        for replica in self._replicas:
            replica.advance_to(t)
        self._drain_failed()

    def drain(self) -> None:
        """Flush and serve everything still queued, on every replica.

        Replica clocks are first aligned to the cluster frontier (serving
        any wait deadlines that expired strictly before it), so drain-time
        flushes happen at one well-defined cluster instant regardless of
        which worker each query was routed to.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = cluster.submit_many("t", [1, 2], [2, 1])
        >>> cluster.drain()
        >>> cluster.pending_count()
        0
        """
        self._apply_faults(self.clock.now)
        while True:
            for replica in self._replicas:
                replica.sync_to(self.clock.now)
            for replica in self._replicas:
                replica.drain()
            self._drain_failed()
            if self.pending_count() == 0:
                break
        if self._parked:
            stranded = sum(int(t.size) for _, t, _, _, _ in self._parked)
            datasets = sorted({entry[0] for entry in self._parked})
            raise ReplicaDown(
                f"{stranded} admitted queries are stranded with no live copy "
                f"of {datasets}; recover a replica or add_replica(), then "
                f"drain() again",
                dataset=datasets[0],
                queries=stranded,
            )

    def pending_count(self, dataset: Optional[str] = None) -> int:
        """Queries currently queued (for one dataset, or cluster-wide).

        Summed over every worker, not the current placement: a re-placement
        leaves a dataset's queued queries on the replica it moved away from.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(
        ...     n_replicas=2, max_batch_size=8, max_wait_s=1.0))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = cluster.submit("t", 1, 2)
        >>> cluster.pending_count("t"), cluster.pending_count()
        (1, 1)
        """
        if dataset is not None:
            self._copies(dataset)  # an unknown dataset is refused
            return sum(w.pending_count(dataset) for w in self._replicas)
        return sum(replica.pending_count() for replica in self._replicas)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ClusterStats:
        """Aggregate the replicas' statistics into one cluster snapshot.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = cluster.submit_many("t", [1, 2], [2, 1])
        >>> cluster.drain()
        >>> stats = cluster.stats()
        >>> stats.queries_answered, stats.queries_shed
        (2, 0)
        """
        per = tuple(replica.stats() for replica in self._replicas)
        answered = tuple(s.queries_answered for s in per)
        mean_load = sum(answered) / len(answered)
        offered = self.tickets_issued + self._shed  # a ticket per admitted query
        return ClusterStats.merge(
            [(w.stats_collector, w.registry, w.answer_cache) for w in self._replicas],
            queries_submitted=self.tickets_issued,
            n_replicas=self.n_replicas,
            router_policy=self.router.name,
            queries_offered=offered,
            queries_shed=self._shed,
            shed_rate=self._shed / offered if offered else 0.0,
            per_replica_answered=answered,
            load_imbalance=max(answered) / mean_load if mean_load > 0 else 0.0,
            replicas=per,
            queries_retried=self._retried,
            hedges_issued=self._hedges_issued,
            hedges_won=self._hedges_won,
            faults_injected=self._faults_applied,
            membership_events=self._membership_events,
            replica_seconds=self.replica_seconds(),
        )

    # ------------------------------------------------------------------
    # Online tuning
    # ------------------------------------------------------------------
    def apply_tuning(self, *, max_batch_size: Optional[int] = None,
                     max_wait_s: Optional[float] = None,
                     hedge_delay_s: Optional[float] = None,
                     max_pending: Optional[int] = None,
                     n_replicas: Optional[int] = None,
                     dataset: Optional[str] = None) -> ClusterConfig:
        """Hot-swap the safe-to-retune knobs cluster-wide at a flush boundary.

        The cluster's :attr:`ClusterConfig.TUNABLE` subset: the batching
        knobs are forwarded to every worker's
        :meth:`LCAQueryService.apply_tuning` (batches the swap forces out
        are served immediately; in-flight batches are untouched), the
        hedge delay takes effect for every *subsequent* straggling batch
        (hooks are installed on demand when hedging turns on mid-run), and
        the admission limit re-prices the very next submission.  ``None``
        leaves a knob unchanged — tuning can therefore tighten or loosen
        hedging and admission but never disable them (that is a structural
        choice made at construction).  Newly minted replicas
        (:meth:`add_replica`) arrive with the tuned configuration.

        ``n_replicas`` makes the replica count itself a tunable knob: the
        cluster scales to the requested active count through
        :meth:`scale_to` (drain-before-retire, live-copy safety; an unsafe
        scale-in raises :class:`~repro.errors.ServiceError` and leaves the
        other knobs applied).

        ``dataset`` scopes the swap to one dataset's lane on its placement
        copies (a priority lane) and accepts only the batching knobs;
        cluster-wide knobs with ``dataset=`` raise
        :class:`~repro.errors.ServiceError`.

        Returns :attr:`config` after the call.

        >>> import numpy as np
        >>> cluster = ClusterService(config=ClusterConfig(n_replicas=2,
        ...                                               max_pending=64))
        >>> _ = cluster.register_tree("t", np.array([-1, 0, 0]))
        >>> cluster.apply_tuning(max_batch_size=32,
        ...                      max_pending=128).max_pending
        128
        >>> cluster.replicas[0].policy.max_batch_size
        32
        """
        changes: Dict[str, object] = {}
        batch_changes: Dict[str, object] = {}
        if max_batch_size is not None:
            batch_changes["max_batch_size"] = max_batch_size
        if max_wait_s is not None:
            batch_changes["max_wait_s"] = max_wait_s
        changes.update(batch_changes)
        if hedge_delay_s is not None:
            changes["hedge_delay_s"] = hedge_delay_s
        if max_pending is not None:
            changes["max_pending"] = max_pending
        if dataset is not None and (
            len(batch_changes) != len(changes) or n_replicas is not None
        ):
            raise ServiceError(
                "dataset-scoped tuning accepts only max_batch_size and "
                "max_wait_s; hedge_delay_s, max_pending and n_replicas "
                "are cluster-wide"
            )
        if not changes and n_replicas is None:
            return self.config
        if dataset is not None:
            for c in self._copies(dataset):
                self._replicas[c].apply_tuning(dataset=dataset,
                                               **batch_changes)  # type: ignore[arg-type]
            self._drain_failed()
            return self.config
        if changes:
            newly_hedged = (hedge_delay_s is not None
                            and self.config.hedge_delay_s is None)
            self.config = self.config.derive(**changes)
            if newly_hedged:
                for i, worker in enumerate(self._replicas):
                    worker.set_hedge_hook(self._make_hedge_hook(i))
        if batch_changes:
            self._worker_config = self._worker_config.derive(**batch_changes)
            for worker in self._replicas:
                worker.apply_tuning(**batch_changes)  # type: ignore[arg-type]
            # A forced flush can be claimed by a serve interceptor (dead or
            # failing replica): re-dispatch exactly as any serve path does.
            self._drain_failed()
        if n_replicas is not None and n_replicas != self.n_active:
            # Membership moves last so an unsafe scale-in leaves the other
            # knobs applied; scale_to() keeps config.n_replicas current.
            self.scale_to(n_replicas)
        return self.config

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _copies(self, dataset: str) -> Tuple[int, ...]:
        try:
            return self._placement[dataset]
        except KeyError:
            raise ServiceError(
                f"unknown dataset {dataset!r}; register_tree() it first"
            ) from None

    def _outstanding(self, copies: Tuple[int, ...]) -> np.ndarray:
        return np.array(
            [self._replicas[c].pending_count() for c in copies], dtype=np.int64
        )

    @staticmethod
    def _grouped(owners: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """The cluster's one routing cut: positions of ``owners`` by owner.

        ``(owner, positions)`` per distinct owner in ascending id order — the
        owner a Python int, its positions in the caller's order (the sort is
        stable), so a sub-block of an arrival-ordered block is itself
        arrival-ordered.  A counting sort: owners are replica ids, narrowed
        to the smallest unsigned type (NumPy's stable sort of ints of at most
        16 bits is a radix sort), and ``bincount`` gives the group bounds.
        """
        counts = np.bincount(owners)
        order = owners.astype(np.min_scalar_type(counts.size)).argsort(kind="stable")
        ends = counts.cumsum().tolist()
        return (
            (owner, order[end - count : end])
            for owner, (count, end) in enumerate(zip(counts.tolist(), ends))
            if count
        )

    # ------------------------------------------------------------------
    # Fault tolerance internals
    # ------------------------------------------------------------------
    def _worker(self) -> LCAQueryService:
        """A worker on the cluster's store and ticket table, at its frontier."""
        return LCAQueryService(
            self.store,
            config=self._worker_config,
            dispatcher=self._dispatcher_factory(),
            clock=SimulatedClock(self.clock.now),
            tickets=self._tickets,
        )

    def _install_hooks(self, replica: int, worker: LCAQueryService) -> None:
        """Wire the worker's fault hooks; inert unless features are on."""
        if self.fault_injector is not None:
            worker.set_serve_interceptor(self._make_interceptor(replica))
        if self.config.hedge_delay_s is not None:
            worker.set_hedge_hook(self._make_hedge_hook(replica))

    def _make_interceptor(
        self, replica: int
    ) -> Callable[[str, FlushedBatch], bool]:
        def intercept(dataset: str, batch: FlushedBatch) -> bool:
            if self._alive[replica]:
                if self._transient[replica] <= 0:
                    return False
                self._transient[replica] -= 1
            self._failed.append((replica, dataset, batch))
            return True

        return intercept

    def _make_hedge_hook(
        self, replica: int
    ) -> Callable[[str, FlushedBatch, float], Optional[float]]:
        def hedge(
            dataset: str, batch: FlushedBatch, completion_s: float
        ) -> Optional[float]:
            return self._hedge(replica, dataset, batch, completion_s)

        return hedge

    def _hedge(
        self,
        source: int,
        dataset: str,
        batch: FlushedBatch,
        completion_s: float,
    ) -> Optional[float]:
        """Duplicate a straggling batch onto another live copy; first wins."""
        delay = self.config.hedge_delay_s
        if delay is None or completion_s - batch.flush_s <= delay:
            return None
        copies = tuple(
            c for c in self._copies(dataset) if c != source and self._alive[c]
        )
        if not copies:
            return None
        depths = self._outstanding(copies)
        target = int(self.router.route_block(dataset, copies, depths, 1)[0])
        issue_s = batch.flush_s + delay
        alt = self._replicas[target].serve_hedge(
            dataset, batch.xs, batch.ys, issue_s=issue_s
        )
        self._hedges_issued += 1
        won = alt < completion_s
        if won:
            self._hedges_won += 1
        if self._observer is not None:
            self._observer.record(
                EV_HEDGE,
                issue_s,
                batch=batch.batch_id,
                replica=target,
                detail=alt - issue_s,
                aux=self._observer.intern("won" if won else "lost"),
            )
        return alt if won else None

    def _apply_faults(self, upto_s: float) -> None:
        """Apply every scheduled fault event due at or before ``upto_s``."""
        injector = self.fault_injector
        if injector is None:
            return
        next_due = injector.next_time_s
        if next_due is None or next_due > upto_s:
            return
        for event in injector.advance(upto_s):
            t = max(event.time_s, self.clock.now)
            # Serve everything due before the fault instant first: a fault
            # takes effect at its own simulated time, never retroactively.
            for i, worker in enumerate(self._replicas):
                if self._alive[i]:
                    worker.advance_to(t)
            self.clock.advance_to(t)
            self._apply_event(event, t)
            self._faults_applied += 1
        self._drain_failed()

    def _apply_event(self, event: FaultEvent, t: float) -> None:
        action = event.action
        if action == "add":
            self.add_replica()
            return
        if action == "retire":
            self.retire_replica(self._fault_target(event))
            return
        r = self._fault_target(event)
        if action == "kill":
            self._kill(r, t)
        elif action == "recover":
            self._recover(r, t)
        elif action == "slowdown":
            self._replicas[r].set_service_factor(event.factor)
        elif action == "transient":
            self._transient[r] += event.count
        if self._observer is not None:
            detail = event.factor if action == "slowdown" else float(event.count)
            self._observer.record(
                EV_FAULT,
                t,
                replica=r,
                detail=detail,
                aux=self._observer.intern(action),
            )

    def _fault_target(self, event: FaultEvent) -> int:
        r = event.replica
        if not 0 <= r < len(self._replicas) or self._retired[r]:
            raise ServiceError(
                f"fault event {event.action!r} targets unknown or retired "
                f"replica {r}"
            )
        return r

    def _kill(self, r: int, t: float) -> None:
        if not self._alive[r]:
            return
        self._alive[r] = False
        for dataset, columns in self._replicas[r].evict_pending().items():
            self._redispatch(dataset, *columns, t, exclude=r)

    def _recover(self, r: int, t: float) -> None:
        if self._alive[r]:
            return
        self._replicas[r].advance_to(t)
        self._alive[r] = True
        self._drain_parked(t)

    def _redispatch(
        self,
        dataset: str,
        tickets: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        arrival_s: np.ndarray,
        now: float,
        *,
        exclude: Optional[int] = None,
    ) -> None:
        """Failover: re-admit queries onto surviving copies of ``dataset``.

        The queries keep their cluster tickets.  ``arrival_s`` is each one's
        last arrival, which less its ``debt`` is its *original* cluster
        arrival, so re-admission charges the full elapsed time since then as
        latency debt — reported latency survives any number of failovers.  ``exclude`` steers the retry away from the replica
        that just failed it: a hard exclusion when that replica is dead
        (the liveness filter removes it anyway), a soft preference when it
        is alive but flaky — if it holds the only live copy, retrying there
        beats parking live work.  With no live copy the queries are parked
        (a recovery or scale-out re-dispatches them); past
        :data:`MAX_RETRIES` the typed :class:`~repro.errors.ReplicaDown` is
        raised instead.
        """
        count = int(tickets.size)
        if count == 0:
            return
        live = tuple(c for c in self._copies(dataset) if self._alive[c])
        copies = tuple(c for c in live if c != exclude) or live
        if not copies:
            self._parked.append((dataset, tickets, xs, ys, arrival_s))
            return
        retries = self._tickets.zeros("retries", np.int64)
        attempts = retries[tickets] + 1
        if int(attempts.max()) > MAX_RETRIES:
            raise ReplicaDown(
                f"{count} queries on dataset {dataset!r} exceeded the retry "
                f"cap ({MAX_RETRIES})",
                dataset=dataset,
                queries=count,
            )
        retries[tickets] = attempts
        origin_s = arrival_s - self._tickets.zeros("debt", np.float64)[tickets]
        depths = self._outstanding(copies)
        owners = self.router.route_block(dataset, copies, depths, count)
        for target, sel in self._grouped(owners):
            worker = self._replicas[target]
            t_re = max(now, worker.clock.now)
            rearrival = np.full(sel.size, t_re, dtype=np.float64)
            debt = rearrival - origin_s[sel]
            worker.admit(dataset, tickets[sel], xs[sel], ys[sel], rearrival, debt=debt)
            self._retried += int(sel.size)
            if self._observer is not None:
                self._observer.record(
                    EV_RETRY,
                    t_re,
                    replica=target,
                    detail=float(sel.size),
                    aux=self._observer.intern(dataset),
                )

    def _drain_failed(self) -> None:
        """Re-dispatch every batch captured by a serve interceptor."""
        while self._failed:
            source, dataset, batch = self._failed.pop(0)
            columns = batch.tickets, batch.xs, batch.ys, batch.arrival_s
            self._redispatch(dataset, *columns, self.clock.now, exclude=source)

    def _drain_parked(self, t: float) -> None:
        """Re-dispatch queries parked while no copy of their dataset lived."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for dataset, *columns in parked:
            self._redispatch(dataset, *columns, t)

    def _hash_place(self, name: str, replicas: int) -> Tuple[int, ...]:
        """``name``'s first ``replicas`` (``0``: all) active replicas by rank."""
        active = [r for r, retired in enumerate(self._retired) if not retired]
        return rendezvous(name, active, replicas or len(active))

    def _replace_hashed_datasets(self) -> None:
        """Recompute hash placements after membership changed.

        Every worker shares :attr:`store`, so a newly placed copy needs no
        registration (its index builds lazily on first use), and a displaced
        copy's built index stays in its registry as a warm spare until LRU
        evicts it.
        """
        for name, want in self._tree_replicas.items():
            if want is not None:  # pinned via on=: membership never moves it
                self._placement[name] = self._hash_place(name, want)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ClusterService(replicas={self.n_replicas}, "
            f"router={self.router.name!r}, datasets={self.datasets}, "
            f"pending={self.pending_count()}, shed={self._shed})"
        )
