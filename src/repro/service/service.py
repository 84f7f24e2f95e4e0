"""The query service: registry + micro-batch scheduler + dispatcher, wired up.

:class:`LCAQueryService` is the subsystem's front door.  Callers register
named trees, submit LCA queries (one at a time or as column blocks) with
arrival timestamps, and read back answers by ticket; internally each dataset
gets a :class:`~repro.service.scheduler.MicroBatchScheduler` (all sharing one
simulated clock), every flushed batch is priced by the
:class:`~repro.service.dispatch.CostModelDispatcher` and executed on the
chosen backend's algorithm fetched from — or lazily built into — the
:class:`~repro.service.registry.IndexRegistry`.

The modeled end-to-end latency of a query is::

    (flush_time - arrival_time)        # waiting for the batch to form
    + backend queueing                 # waiting for the device to come free
    + index build time                 # only when the batch hit a cold cache
    + batch execution time             # the backend's modeled kernel time

which is exactly the latency decomposition of a real batched serving system.
Each backend is a single serially occupied device: a batch starts at
``max(flush_time, backend_free_time)``, so offered load beyond a backend's
modeled capacity shows up as growing queueing delay and saturating delivered
throughput rather than as impossible numbers.

Host-side, the hot path is *columnar*: tickets are consecutive integers
indexing growable answer/latency tables (a block's are stored and read back
as slices), and :meth:`LCAQueryService.submit_many` admits a whole arrival
block through :meth:`MicroBatchScheduler.submit_block` instead of looping
over Python objects.

An opt-in *skew-aware fast path* (``dedup=True`` / ``answer_cache_bytes=``)
exploits repetition: pairs are canonicalized (LCA is symmetric) and packed
into uint64 keys, blocks are probed against a bounded exact
:class:`~repro.service.cache.AnswerCache` at the front door (hits are
answered at arrival, without queueing for a batch), and each *span* of
flushed batches runs the kernel once, on its distinct cache misses only.
Each batch is still priced at its own *unique miss* count — so key skew
moves the CPU/GPU crossover — which the span derives in closed form (a lane
hits iff its key was cached or first appears in an earlier batch of the
span).  Answers are bit-identical with the fast path on or off.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..boundary import instant, query_block, query_pair
from ..errors import InvalidQueryError, ServiceError
from ..lca.dedup import (
    PACK_LIMIT,
    first_appearance_counts,
    pack_query_pairs,
    unique_packed_keys,
    unpack_query_pairs,
)
from ..obs.events import (
    EV_ARRIVAL,
    EV_CACHE_HITS,
    EV_CACHE_INSERT,
    EV_CACHE_LANE_HIT,
    EV_CACHE_MISSES,
    EV_CACHE_RESET,
    EV_COMPLETE,
    EV_DISPATCH,
    EV_FLUSH,
    EV_INDEX_EVICT,
    EV_INDEX_LOAD,
    EV_KERNEL_END,
    EV_KERNEL_START,
    TraceRecorder,
)
from .cache import AnswerCache, answer_cache_probe_time
from .clock import SimulatedClock
from .config import ServiceConfig
from .dispatch import Backend, CostModelDispatcher, dispatcher_for
from .registry import ArtifactKey, ForestStore, IndexRegistry
from .scheduler import Cut, Cuts, FlushedBatch, MicroBatchScheduler
from .stats import ServiceStats, StatsCollector
from .tickets import TicketTable

__all__ = ["LCAQueryService"]

#: Backend-lane key full-cache-hit batches are booked under (they occupy the
#: host-side cache lane, not a compute backend).
CACHE_BACKEND_KEY = "cache"


def block_clean_prefix(xs: np.ndarray, ys: np.ndarray, arrivals: np.ndarray, *,
                       n: int, dataset: str, now: float
                       ) -> Tuple[int, Optional[Exception]]:
    """Admissible prefix of a column block, with the first offender's error.

    Replicates the per-query loop's error semantics in bulk.  A clean block
    passes one test (the larger id, negatives wrapped as unsigned, is below
    ``n``; arrivals start at or after ``now``, end finite, never decrease —
    NaN fails every comparison); only one that fails it is searched: one
    fused bounds check finds every out-of-range query, a non-finite arrival
    is one ``isfinite`` pass, a backwards arrival is an adjacent-difference
    check against ``now``, and the earliest offender wins.  Returns
    ``(stop, error)`` — admit ``[:stop]``, then raise ``error`` (``None``
    when the whole block is clean).

    The one validator of both front doors' blocks (:meth:`FrontDoor._clean_block`):
    :meth:`LCAQueryService.admit` checks nothing again.
    """
    ids = np.maximum(xs.view(np.uint64), ys.view(np.uint64))  # -1 wraps past n
    if (int(ids.max()) < n and arrivals[0] >= now
            and math.isfinite(arrivals[-1]) and (arrivals[1:] >= arrivals[:-1]).all()):
        return int(xs.size), None
    bad = ids >= np.uint64(n)
    stop = int(xs.size)
    error: Optional[Exception] = None
    if bad.any():
        stop = int(bad.argmax())
        error = InvalidQueryError(
            f"query nodes ({xs[stop]}, {ys[stop]}) out of range for "
            f"dataset {dataset!r} with {n} nodes"
        )
    finite = np.isfinite(arrivals)
    if not finite[:stop].all():
        stop = int(finite.argmin())
        error = ServiceError(
            f"arrival timestamps must be finite, got {float(arrivals[stop])} "
            f"at position {stop}"
        )
    moved_back = np.concatenate(([arrivals[0] < now], arrivals[1:] < arrivals[:-1]))
    if moved_back[:stop].any():
        stop = int(moved_back.argmax())
        prev = now if stop == 0 else float(arrivals[stop - 1])
        error = ServiceError(
            f"cannot move the clock backwards (now={prev}, "
            f"requested={float(arrivals[stop])})"
        )
    return stop, error


#: One batch of a run: its dataset and its scheduler :data:`~.scheduler.Cut`.
RunItem = Tuple[str, Cut]


def run_of(dataset: str, flushed: Cuts) -> List[RunItem]:
    """The run of one scheduler call's cuts, in flush order."""
    return [(dataset, cut) for cut in flushed.rows]


class _Span:
    """Adjacent batches of one dataset in a run: the unit of host work and booking.

    ``cuts`` are its batches, adjacent rows of one scheduler buffer (``xs`` /
    ``ys`` view them all), with ``sizes``, cache ``hits`` and ``unique`` misses
    (kernel queries) apiece; the first ``booked`` are finished.  ``answers``
    is per lane: the cache probe's values (right on the lanes that hit, all a
    batch booked before the launch reads) until the span's one launch, every
    lane's answer after it.  The skew-aware path also leaves the launch its
    ``space``, the lanes it must answer (``miss``; ``None``: all) and their
    keys' :func:`~repro.lca.dedup.unique_packed_keys`.
    """

    __slots__ = ("dataset", "cuts", "sizes", "hits", "unique", "booked", "xs",
                 "ys", "deduped", "pending", "answers", "space", "miss",
                 "unique_keys", "order", "inverse")

    def __init__(self, dataset: str, cuts: List[Cut], deduped: bool) -> None:
        self.dataset, self.cuts, self.deduped = dataset, cuts, deduped
        self.pending, self.booked = True, 0
        self.answers = self.space = self.miss = self.inverse = None


class FrontDoor:
    """The read and identity side :class:`LCAQueryService` and
    :class:`~repro.service.cluster.ClusterService` share.

    Either front door keeps its datasets in one :attr:`store`, answers into
    one :class:`~repro.service.tickets.TicketTable` (answers, latencies,
    ``answered``; a fresh one of ``capacity`` unless ``tickets`` is given) on
    one :attr:`clock`, and may carry a trace recorder.
    """

    def __init__(self, store: ForestStore, clock: SimulatedClock,
                 tickets: Optional[TicketTable] = None, capacity: int = 0) -> None:
        if tickets is None:
            tickets = TicketTable(capacity, answers=np.int64, latencies=np.float64)
            tickets.zeros("answered", np.bool_)
        self.store, self.clock, self._tickets = store, clock, tickets
        self._observer: Optional[TraceRecorder] = None

    @property
    def observer(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any."""
        return self._observer

    @property
    def datasets(self) -> List[str]:
        """Names of all registered datasets, in registration order."""
        return self.store.names

    @property
    def tickets_issued(self) -> int:
        """How many tickets have been issued so far (tickets are ``0..n-1``).

        Tickets are consecutive integers, so a caller that records this
        before a submission knows exactly which tickets that submission
        received — including a partially admitted block, one cut short by
        :class:`~repro.errors.Overloaded` too (replay keeps phase ranges so).

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> svc.tickets_issued
        0
        >>> _ = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.tickets_issued
        2
        """
        return self._tickets.issued

    def result(self, ticket: int) -> int:
        """The answer for one ticket (its batch must have been served).

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.drain()
        >>> svc.result(t)
        0
        >>> svc.result(99)
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: unknown ticket 99
        """
        return int(self._tickets.read("answers", ticket)[0])

    def results(self, tickets: ArrayLike) -> np.ndarray:
        """Vector of answers for a sequence of tickets (one table lookup).

        Raises :class:`ServiceError` exactly as :meth:`result` would for the
        first unknown or still-queued ticket in the sequence.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> tickets = svc.submit_many("t", [3, 2], [1, 3])
        >>> svc.drain()
        >>> svc.results(tickets).tolist()
        [1, 0]
        """
        return self._tickets.read("answers", tickets)

    def latency(self, ticket: int) -> float:
        """Modeled end-to-end latency of one answered query.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.drain()
        >>> svc.latency(t) > 0.0       # waiting + queueing + execution
        True
        """
        return float(self._tickets.read("latencies", ticket)[0])

    def latencies(self, tickets: ArrayLike) -> np.ndarray:
        """Vector of modeled latencies for a sequence of answered tickets.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> tickets = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.drain()
        >>> bool((svc.latencies(tickets) > 0.0).all())
        True
        """
        return self._tickets.read("latencies", tickets)

    def _clean_block(self, dataset: str, xs: np.ndarray, ys: np.ndarray,
                     at: Optional[np.ndarray]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int,
                                Optional[Exception]]:
        """The checked columns and :func:`block_clean_prefix`'s ``(stop, error)``
        every ``submit_many`` opens with, once it has refused an unknown
        ``dataset`` (an empty block admits nothing)."""
        xs, ys, arrivals = query_block(xs, ys, at, now=self.clock.now)
        if xs.size == 0:
            return xs, ys, arrivals, 0, None
        stop, error = block_clean_prefix(xs, ys, arrivals,
                                         n=self.store.tree(dataset).size,
                                         dataset=dataset, now=self.clock.now)
        return xs, ys, arrivals, stop, error


class LCAQueryService(FrontDoor):
    """Serves LCA queries against named, index-cached trees in micro-batches.

    Parameters
    ----------
    store:
        Raw dataset store (a fresh empty one by default); every dataset it
        holds is served, ones added later too — a cluster shares one.
    config:
        A :class:`~repro.service.config.ServiceConfig` carrying every
        serializable knob in one value (batching policy, index-cache and
        answer-cache budgets, dedup, ticket pre-sizing, backend set);
        defaults to ``ServiceConfig()``.  Exposed as :attr:`config`.
    dispatcher:
        Backend-choice policy; defaults to the one ``config`` describes
        (CPU-vs-GPU under the roofline cost model unless it names backends
        or a calibration profile).
    clock:
        Simulated time source shared by all schedulers.
    tickets:
        The :class:`~repro.service.tickets.TicketTable` answers are written
        into (by default a fresh one pre-sized by ``ticket_capacity``); a
        cluster hands every worker the one it built.

    Usage
    -----
    >>> import numpy as np
    >>> from repro.graphs.generators import random_attachment_tree
    >>> from repro.service import LCAQueryService
    >>> svc = LCAQueryService()
    >>> svc.register_tree("t", random_attachment_tree(64, seed=0))
    >>> tickets = svc.submit_many("t", [1, 3, 5], [2, 4, 6],
    ...                           at=np.arange(3) * 1e-6)
    >>> svc.drain()
    >>> answers = svc.results(tickets)
    """

    def __init__(self, store: Optional[ForestStore] = None, *,
                 config: Optional[ServiceConfig] = None,
                 dispatcher: Optional[CostModelDispatcher] = None,
                 clock: Optional[SimulatedClock] = None,
                 tickets: Optional[TicketTable] = None) -> None:
        if config is None:
            config = ServiceConfig()
        # Ticket-indexed result columns, pre-sized by ``ticket_capacity``
        # (re-admissions add a zeroed ``debt`` column).
        reserve = config.ticket_capacity
        super().__init__(store or ForestStore(), clock or SimulatedClock(),
                         tickets, reserve or 0)
        self.config = config
        self._obs_replica = 0
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(config.answer_cache_bytes)
            if config.answer_cache_bytes is not None else None
        )
        self._dedup = config.dedup or self.answer_cache is not None
        self.registry = IndexRegistry(self.store, capacity_bytes=config.capacity_bytes)
        self.policy = config.batch_policy()
        # An explicit dispatcher= wins (the cluster passes pre-built ones).
        self.dispatcher = (dispatcher if dispatcher is not None else
                           dispatcher_for(config.backends, config.calibration_path))
        self.stats_collector = StatsCollector()
        self._schedulers: Dict[str, MicroBatchScheduler] = {}
        self._dataset_rank: Dict[str, int] = {}
        if reserve is not None:
            self.stats_collector.reserve(reserve)
        # Memoized (dataset, backend) -> ArtifactKey for the registry's keyed
        # fast path; rebuilt lazily, invalidation-free (keys are pure values).
        self._artifact_keys: Dict[Tuple[str, str], ArtifactKey] = {}
        # When each backend's (single, serially occupied) device next comes
        # free; batches queue behind it.
        self._backend_free_s: Dict[str, float] = {}
        # Fault-tolerance hooks the cluster installs (see their setters);
        # inert by default, one `is None` / `== 1.0` check on the serving path.
        self._serve_interceptor: Optional[
            Callable[[str, FlushedBatch], bool]] = None
        self._hedge_hook: Optional[
            Callable[[str, FlushedBatch, float], Optional[float]]] = None
        self._service_factor = 1.0
        self._add_schedulers()  # a caller-provided store's datasets too

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observer(self, observer: Optional[TraceRecorder], *,
                        replica: int = 0) -> None:
        """Attach (or detach, with ``None``) a lifecycle trace recorder.

        Every layer of the service starts emitting into it: arrivals and
        completions here, enqueue/flush from each dataset's scheduler,
        dispatch decisions, cache hits/misses/inserts/resets, and index
        registry loads/evictions.  ``replica`` stamps every event (the
        cluster layer assigns each worker its index).  With no observer
        attached — the default — each hook is one ``is None`` check.
        """
        self._observer = observer
        self._obs_replica = int(replica)
        for scheduler in self._schedulers.values():
            scheduler.set_observer(observer, replica=self._obs_replica)
        self.registry.event_hook = (
            self._record_index_event if observer is not None else None
        )

    def _record_index_event(self, event: str, key: ArtifactKey,
                            value: float) -> None:
        obs = self._observer
        if obs is None:  # pragma: no cover - hook detached concurrently
            return
        kind = EV_INDEX_LOAD if event == "load" else EV_INDEX_EVICT
        obs.record(kind, self.clock.now, replica=self._obs_replica,
                   detail=value,
                   aux=obs.intern(f"{key.dataset}/{key.variant or key.kind}"))

    # ------------------------------------------------------------------
    # Fault-tolerance hooks (driven by the cluster layer; inert standalone)
    # ------------------------------------------------------------------
    def set_serve_interceptor(
            self, interceptor: Optional[Callable[[str, FlushedBatch], bool]]
    ) -> None:
        """Install (or remove, with ``None``) a batch-serve interceptor.

        Called as ``interceptor(dataset, batch)`` before every batch would
        execute; returning ``True`` claims the batch — the service skips it
        entirely (no kernel, no answers, no stats).  The cluster layer uses
        this to capture batches on a dead or transiently failing replica and
        re-dispatch them to a surviving copy.
        """
        self._serve_interceptor = interceptor

    def set_hedge_hook(
            self,
            hook: Optional[Callable[[str, FlushedBatch, float],
                                    Optional[float]]],
    ) -> None:
        """Install (or remove) the hedged-dispatch hook.

        Called as ``hook(dataset, batch, completion_s)`` after a kernel
        batch's completion time is known; returning an earlier instant means
        a duplicate execution elsewhere finished first and the batch's
        queries complete then instead.  The original lane stays booked —
        hedging trades duplicate backend work for tail latency.
        """
        self._hedge_hook = hook

    def set_service_factor(self, factor: float) -> None:
        """Scale every subsequent kernel service time by ``factor``.

        The fault injector's ``slowdown`` action routes here; ``1.0``
        restores full speed.

        >>> svc = LCAQueryService()
        >>> svc.set_service_factor(4.0)
        >>> svc.set_service_factor(0.5)
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: service factor must be >= 1.0, got 0.5
        """
        factor = instant(factor, "service factor")
        if not factor >= 1.0:
            raise ServiceError(f"service factor must be >= 1.0, got {factor}")
        self._service_factor = factor

    def evict_pending(self) -> Dict[
            str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Pull every queued query back out, per dataset, without serving it.

        Returns ``{dataset: (tickets, xs, ys, arrival_s)}`` for each dataset
        with a non-empty queue (array copies; the schedulers end up empty).
        The cluster layer calls this when a replica is killed so the
        stranded queries can be re-dispatched to surviving copies.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> sorted(svc.evict_pending())
        ['t']
        >>> svc.pending_count()
        0
        """
        return {name: scheduler.evict() for name, scheduler in self._schedulers.items()
                if scheduler.pending_count}

    def serve_hedge(self, dataset: str, xs: np.ndarray, ys: np.ndarray, *,
                    issue_s: float) -> float:
        """Book a duplicate of a straggling batch; return its completion time.

        What is *modeled* is a full second execution on this replica: the
        dispatcher picks a backend for the duplicate's size, the index is
        fetched (a cold one is really built, and pays its build time), the
        lane is serially booked from ``issue_s``, and the duplicate backend
        time is billed to this replica's stats.  What is *executed* on the
        host is everything but the kernel: LCA is deterministic, the
        original batch computes the answers, so the host computes each
        answer once.  Only the completion instant flows back; the caller
        takes ``min(original, hedge)``.
        """
        size = int(np.asarray(xs).size)
        backend, service_time = self.dispatcher.choose_with_estimate(size)
        entry, hit = self.registry.fetch_by_key(
            self._artifact_key(dataset, backend), spec=backend.spec)
        if not hit:
            service_time += entry.build_time_s
        if self._service_factor != 1.0:
            service_time *= self._service_factor
        start = max(float(issue_s),
                    self._backend_free_s.get(backend.key, 0.0))
        completion = start + service_time
        self._backend_free_s[backend.key] = completion
        self.stats_collector.record_hedge(service_time)
        obs = self._observer
        if obs is not None:
            obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start, completion,
                            batch=obs.next_batch_id(),
                            replica=self._obs_replica, detail=service_time,
                            aux=obs.intern(backend.key))
        return completion

    # ------------------------------------------------------------------
    # Dataset management
    # ------------------------------------------------------------------
    def _add_schedulers(self) -> None:
        # Schedulers are a prefix of the store's names (this loop is the
        # only one that adds any); a shared store may have grown since.
        for name in self.store.names[len(self._schedulers):]:
            self._dataset_rank[name] = len(self._schedulers)
            scheduler = MicroBatchScheduler(self.policy, clock=self.clock)
            if self._observer is not None:
                scheduler.set_observer(self._observer, replica=self._obs_replica)
            self._schedulers[name] = scheduler

    def register_tree(self, name: str, parents: Optional[np.ndarray] = None, *,
                      loader: Optional[Callable[[], np.ndarray]] = None,
                      validate: bool = False) -> None:
        """Register a named tree and give it a scheduler.

        Pass the parent array directly, or a zero-argument ``loader`` for
        lazy materialization on first use.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("eager", np.array([-1, 0, 0]))
        >>> svc.register_tree("lazy", loader=lambda: np.array([-1, 0]))
        >>> svc.datasets
        ['eager', 'lazy']
        """
        self.store.add_tree(name, parents, loader=loader, validate=validate)
        self._add_schedulers()

    def warm(self, dataset: str) -> None:
        """Prebuild ``dataset``'s LCA artifact for every dispatchable backend.

        Builds exactly the registry keys the serving path fetches
        (:meth:`_artifact_key`), so no batch served afterwards pays a cold
        index build.  Benchmarks and clusters call this before taking
        traffic.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> svc.warm("t")
        >>> svc.registry.misses, svc.registry.hits
        (2, 0)
        >>> _ = svc.submit("t", 1, 2, at=0.0); svc.drain()
        >>> svc.registry.misses
        2
        """
        for backend in self.dispatcher.backends:
            self.registry.fetch_by_key(
                self._artifact_key(dataset, backend), spec=backend.spec)

    # A cluster's views, answered by the one node it would be.
    @property
    def workers(self) -> Tuple["LCAQueryService", ...]:
        """The node itself: its one worker (a cluster's are its ``replicas``)."""
        return (self,)

    n_active = 1  # a node is never retired
    queries_shed = 0  # a node has no admission bound

    # The layer tracer (``benchmarks/layers/trace.py``) patches methods in a
    # named class's own namespace, so the readers it times are bound here too.
    results = FrontDoor.results
    latencies = FrontDoor.latencies

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(self, dataset: str, x: int, y: int, *,
               at: Optional[float] = None) -> int:
        """Submit one LCA query; returns a ticket redeemable after its flush.

        ``at`` is the simulated arrival time (monotone across calls); omitted,
        the query arrives at the clock's current instant.  Arrival may trigger
        flushes — on this dataset (size trigger) or on any dataset whose wait
        deadline the advancing clock passed.

        Query nodes are validated here, before the query is accepted (a
        lazily registered tree is materialized by its first submission): a
        bad query is rejected at its own submit call instead of exploding at
        flush time inside a batch of other callers' queries.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> svc.submit("t", 2, 3)       # tickets count up from 0
        0
        >>> svc.drain(); svc.result(0)  # LCA of nodes 2 and 3 is the root
        0
        """
        scheduler = self._scheduler(dataset)
        n = self.store.tree(dataset).size
        x, y = query_pair(x, y)
        if not (0 <= x < n and 0 <= y < n):
            raise InvalidQueryError(
                f"query nodes ({x}, {y}) out of range for dataset {dataset!r} "
                f"with {n} nodes"
            )
        # Serve everything that expired before this arrival, across all
        # datasets, in global flush-time order; the submitted dataset's
        # deadline exactly at t stays pending so this query can join it.
        # (Per query a flush is the exception: no call when no deadline is due.)
        t = self.clock.now if at is None else self.clock.advance_to(at)
        for other in self._schedulers.values():
            if other.next_deadline <= t:
                self._serve_run(self._expired_batches(t, exclusive=dataset))
                break
        ticket = self._tickets.issue()
        self.stats_collector.record_submit()
        if self._observer is not None:
            self._observer.record(EV_ARRIVAL, t, ticket=ticket,
                                  replica=self._obs_replica)
        flushed = scheduler.submit(ticket, x, y)
        if flushed.rows:
            self._serve_run(run_of(dataset, flushed))
        return ticket

    def submit_many(self, dataset: str, xs: np.ndarray, ys: np.ndarray, *,
                    at: Optional[np.ndarray] = None) -> np.ndarray:
        """Submit a column block of single queries; returns their tickets.

        Three steps: validate the block, issue its tickets, :meth:`admit` it.
        With the skew-aware path off (the default), observationally
        equivalent to calling :meth:`submit` once per query — each query is
        still an individual arrival seen by the scheduler, *not* a
        pre-formed batch — but admission is columnar: the block is validated
        with vectorized comparisons, cut into flush-sized chunks by
        :meth:`MicroBatchScheduler.submit_block`, and every resulting batch is
        served in the same global flush-time order the per-query path
        produces.  ``at`` optionally gives each query its own (non-decreasing)
        arrival timestamp.  With the answer cache on the two admission styles
        diverge observably (answers stay exact): only the columnar path takes
        the front-door memoization, so its cache hits are answered at arrival
        instead of at batch flush (see :meth:`_admit_memoized`).

        Error semantics match the per-query loop exactly: an out-of-range
        query or a backwards arrival raises at its own position, after every
        query before it has been admitted (and possibly served).

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> tickets = svc.submit_many("t", [1, 2], [3, 3],
        ...                           at=np.array([0.0, 1e-6]))
        >>> svc.drain()
        >>> svc.results(tickets).tolist()   # LCA(1,3)=1, LCA(2,3)=0
        [1, 0]
        """
        self._scheduler(dataset)  # an unknown dataset is refused first
        # Admissible prefix: the per-query loop raises at the first
        # offending index after admitting everything before it — replicate
        # that by admitting the clean prefix, then raising the same error.
        xs, ys, arrivals, stop, error = self._clean_block(dataset, xs, ys, at)
        first = self._tickets.issue(stop)
        tickets = np.arange(first, first + stop, dtype=np.int64)
        if stop:
            self.admit(dataset, tickets, xs[:stop], ys[:stop], arrivals[:stop])
        if error is not None:
            raise error
        return tickets

    def admit(self, dataset: str, tickets: np.ndarray, xs: np.ndarray,
              ys: np.ndarray, arrival_s: np.ndarray, *,
              debt: Optional[np.ndarray] = None) -> None:
        """Admit validated queries under tickets already issued from the table.

        The last step of :meth:`submit_many`, and a cluster's way in: the
        cluster validates a block, issues its tickets from the table its
        workers share and admits each routed sub-block here under its own
        cluster tickets.  The caller guarantees what
        :func:`block_clean_prefix` checks (ids in range; arrivals finite,
        non-decreasing, at or after this service's clock).

        ``debt`` (failover only) gives each query the latency accrued before
        this re-admission — the gap between its first arrival and the retry
        instant ``arrival_s`` carries.  It is stored in the table's ``debt``
        column and added to the modeled latency at completion; a
        debt-carrying block always takes the scheduler path (no front-door
        memoization): a retried query re-queues like any other arrival.
        """
        scheduler = self._scheduler(dataset)
        self.stats_collector.record_submit(tickets.size)
        if self._observer is not None:
            self._observer.record_block(EV_ARRIVAL, arrival_s, tickets,
                                        replica=self._obs_replica)
        if debt is not None:
            # Stored before anything can flush and serve the block.
            self._tickets.zeros("debt", np.float64)[tickets] = debt
        elif (self.answer_cache is not None
              and self.store.tree(dataset).size <= PACK_LIMIT  # else ids overflow
              and self._admit_memoized(dataset, scheduler, tickets, xs, ys,
                                       arrival_s)):
            return
        own = scheduler.submit_block(tickets, xs, ys, arrival_s)
        # The block's rows end at the queue's tail: its last cut's stop plus
        # what still waits.  A size flush is placed by the row that filled it.
        tail = own.rows[-1][2] + scheduler.pending_count if own.rows else 0
        self._serve_in_submission_order(dataset, own, arrival_s,
                                        tail - tickets.size)

    def advance_to(self, t: float, *, joining: Optional[str] = None) -> None:
        """Advance simulated time, serving every wait-expired batch.

        ``joining`` names a dataset about to receive a submission at exactly
        ``t``: its wait deadlines equal to ``t`` are left pending so the
        arriving query can still join them (the same rule :meth:`submit`
        applies internally).  The cluster layer uses this to pre-advance
        replica workers to an arrival instant without perturbing the batch
        the arrival belongs to.

        >>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=8,
        ...                                            max_wait_s=1e-3))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> svc.advance_to(2e-3)        # past the 1 ms wait deadline
        >>> svc.result(t)
        0
        """
        self._serve_run(self._expired_batches(t, exclusive=joining))

    def sync_to(self, t: float) -> None:
        """Advance to ``t``, serving only deadlines *strictly* before ``t``.

        Deadlines exactly at ``t`` stay pending — they can still be joined
        by an arrival at ``t`` or be drained at ``t`` with the ``drain``
        trigger, exactly as if time had been advanced one submission at a
        time.  The cluster layer uses this to align a lagging replica clock
        with the cluster frontier at a drain boundary; on a replica whose
        clock already sits at ``t`` it is a no-op (every strictly earlier
        deadline was flushed by the submission that advanced the clock).

        >>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=8,
        ...                                            max_wait_s=1e-3))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> svc.sync_to(1e-3)           # deadline exactly at t stays pending
        >>> svc.pending_count("t")
        1
        >>> svc.advance_to(1e-3)        # inclusive semantics: now it flushes
        >>> svc.pending_count("t")
        0
        """
        self._serve_run(self._expired_batches(t, include_equal=False))

    def drain(self) -> None:
        """Flush and serve everything still queued, on every dataset.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0]))
        >>> t = svc.submit("t", 0, 1)
        >>> svc.drain()
        >>> svc.pending_count()
        0
        """
        for name, scheduler in self._schedulers.items():
            self._serve_run(run_of(name, scheduler.drain()))

    def pending_count(self, dataset: Optional[str] = None) -> int:
        """Queries currently queued (for one dataset, or in total).

        >>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=8,
        ...                                            max_wait_s=1.0))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.pending_count("t"), svc.pending_count()
        (1, 1)
        """
        if dataset is not None:
            return self._scheduler(dataset).pending_count
        return sum(s.pending_count for s in self._schedulers.values())

    def stats(self) -> ServiceStats:
        """Snapshot of the service's accumulated statistics.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.drain()
        >>> svc.stats().queries_answered
        2
        """
        return self.stats_collector.snapshot(registry=self.registry,
                                             answer_cache=self.answer_cache)

    # ------------------------------------------------------------------
    # Online tuning
    # ------------------------------------------------------------------
    def apply_tuning(self, *, max_batch_size: Optional[int] = None,
                     max_wait_s: Optional[float] = None,
                     dataset: Optional[str] = None) -> ServiceConfig:
        """Hot-swap the safe-to-retune batching knobs at a flush boundary.

        Only the :attr:`ServiceConfig.TUNABLE` subset can move mid-stream
        (``None`` leaves a knob unchanged); structural knobs — cache
        budgets, dedup, ticket capacity — are fixed at construction.  The
        swap happens *now* on the simulated clock and never touches an
        already-flushed batch: each scheduler's pending window is re-judged
        under the new policy (see :meth:`MicroBatchScheduler.retune`) and
        any batches the swap forces out — queries made late by a shorter
        wait, windows made oversized by a smaller batch bound — are served
        immediately, in flush-time order.  Answers are bit-identical under
        any retuning schedule; only batching (and therefore latency and
        cost) changes.

        ``dataset`` scopes the swap to one dataset's scheduler — a
        *priority lane*: the named lane keeps its own policy until the
        next global (``dataset=None``) swap resets every lane.  Lane
        overrides do not change :attr:`config` (the global default that
        newly registered datasets inherit).

        Returns :attr:`config` after the call.

        >>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=8,
        ...                                            max_wait_s=1.0))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = [svc.submit("t", 1, 2, at=i * 1e-4) for i in range(3)]
        >>> svc.apply_tuning(max_batch_size=2).max_batch_size  # forces a flush
        2
        >>> svc.pending_count()
        1
        """
        knobs = dict(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
        changes = {name: value for name, value in knobs.items() if value is not None}
        if not changes:
            return self.config
        if dataset is None:
            self.config = self.config.derive(**changes)
            policy = self.config.batch_policy()
            self.policy = policy
            targets = list(self._schedulers.items())
        else:
            scheduler = self._scheduler(dataset)
            policy = dataclasses.replace(scheduler.policy, **changes)  # type: ignore[arg-type]
            targets = [(dataset, scheduler)]
        self._serve_run(self._in_flush_order([
            item for name, scheduler in targets
            for item in run_of(name, scheduler.retune(policy))]))
        return self.config

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scheduler(self, dataset: str) -> MicroBatchScheduler:
        try:
            return self._schedulers[dataset]
        except KeyError:
            if not self.store.has_tree(dataset):
                raise ServiceError(
                    f"unknown dataset {dataset!r}; register_tree() it first"
                ) from None
        self._add_schedulers()
        return self._schedulers[dataset]

    def _in_flush_order(self, run: List[RunItem]) -> List[RunItem]:
        """``run``, sorted by flush time with ties in dataset registration order."""
        rank = self._dataset_rank
        run.sort(key=lambda item: (item[1][3], rank[item[0]]))
        return run

    def _due(self, t: float) -> bool:
        """Whether advancing to ``t`` reaches some scheduler's wait deadline."""
        for scheduler in self._schedulers.values():
            if scheduler.next_deadline <= t:
                return True
        return False

    def _expired_batches(self, t: float, exclusive: Optional[str] = None,
                         include_equal: bool = True) -> List[RunItem]:
        # One shared clock: advancing it fires every dataset's expired wait
        # deadlines, returned in flush order so they queue on the backends
        # FIFO.  Deadlines equal to ``t`` stay pending for ``exclusive`` (a
        # dataset about to receive a submission at ``t``, which may join
        # them) and, with ``include_equal=False``, on every dataset (the
        # :meth:`sync_to` semantics).  Only a scheduler whose deadline ``t``
        # reached is called, so idle or waiting datasets cost one comparison.
        t = self.clock.advance_to(t)
        run: List[RunItem] = []
        for name, scheduler in self._schedulers.items():
            if scheduler.next_deadline <= t:
                cuts = scheduler.advance_to(
                    t, include_equal=include_equal and name != exclusive)
                if cuts.rows:
                    run += run_of(name, cuts)
        return self._in_flush_order(run) if len(run) > 1 else run

    def _serve_in_submission_order(self, dataset: str, own: Cuts,
                                   arrivals: np.ndarray, first_row: int
                                   ) -> None:
        """Serve a block's own batches plus other datasets' expired ones.

        The per-query path serves batches at well-defined points of the
        submission loop: at query ``i`` it first serves every batch whose
        wait deadline the arrival reached — the submitted dataset's strictly
        (deadline < t_i), other datasets' inclusively (deadline <= t_i), all
        sorted by flush time with ties broken by dataset registration order —
        and then the size-completed batch the arriving query just filled, if
        any.  Reconstruct exactly that order from the merged batch lists:
        each batch gets (serving query index, phase, flush time, dataset
        rank) as its sort key, where phase 0 is the deadline sweep and
        phase 1 the size flush.  The block fills the scheduler buffer from
        row ``first_row``: a size flush's query index is its last row's
        offset from there (its tickets need not be consecutive).
        """
        t_last = arrivals.item(arrivals.size - 1)
        merged: List[Tuple[int, int, float, int, str, Cut]] = []
        for name, scheduler in self._schedulers.items():
            if name == dataset or scheduler.next_deadline > t_last:
                continue
            for cut in scheduler.advance_to(t_last, include_equal=True).rows:
                # Other datasets' deadlines fire at the first arrival at or
                # past them.
                at_query = int(arrivals.searchsorted(cut[3], side="left"))
                merged.append((at_query, 0, cut[3], self._dataset_rank[name],
                               name, cut))
        if not merged:
            # Nothing to interleave: own batches are already in serving order.
            self._serve_run(run_of(dataset, own))
            return
        own_rank = self._dataset_rank[dataset]
        for cut in own.rows:
            _, _, stop, flush_s, trigger, _ = cut
            if trigger == "size":
                # Served right after the query that completed the batch.
                at_query, phase = stop - 1 - first_row, 1
            else:
                # A wait flush fires at the first arrival strictly past the
                # deadline (arrival exactly at the deadline joins the batch).
                at_query = int(arrivals.searchsorted(flush_s, side="right"))
                phase = 0
            merged.append((at_query, phase, flush_s, own_rank, dataset, cut))
        merged.sort(key=lambda item: item[:4])
        self._serve_run([item[4:] for item in merged])

    def _admit_memoized(self, dataset: str, scheduler: MicroBatchScheduler,
                        tickets: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                        arrivals: np.ndarray) -> bool:
        """Front-door memoization for the columnar path.

        With the answer cache on, a block is probed *at admission*: queries
        whose canonical pair is already cached are answered immediately on
        the host-side cache lane — they never enter the batching pipeline,
        which is both the standard serving architecture (memoize before you
        queue) and the realistic latency model (a memoized answer does not
        wait for a batch to form).  Only the cache misses are handed to the
        micro-batch scheduler; their spans probe again at serve time (a
        sibling span may have filled the cache in between) and repopulate
        it.  Returns False when nothing hit — the caller then admits the
        whole block through the standard path unchanged.  A full hit whose
        arrivals reach no wait deadline is one pack, one probe and O(1)
        booking.

        Cache-off behaviour is untouched, and answers are bit-identical
        either way; what changes with the cache on is *when* repeated
        queries are answered (at arrival) and that only a span's distinct
        misses reach the kernel (each batch priced at its own unique count).
        """
        cache = self.answer_cache
        assert cache is not None
        t_first, t_last = arrivals.item(0), arrivals.item(-1)
        # Batches whose wait deadline expired before this block's first
        # arrival flush earlier on the simulated timeline, so they serve —
        # and populate the cache — before the block is probed (deadlines
        # falling *inside* the block's arrival span are served after the
        # probe, an acknowledged approximation of the per-arrival
        # interleaving; answers are exact either way).
        if self._due(t_first):
            self._serve_run(self._expired_batches(t_first, exclusive=dataset))
        keys = pack_query_pairs(xs, ys)
        space = self._dataset_rank[dataset]
        values, found, hits = cache.lookup(space, keys)
        obs = self._observer
        if hits == 0:
            if obs is not None:
                obs.record(EV_CACHE_MISSES, t_last, replica=self._obs_replica,
                           detail=float(tickets.size))
            return False
        full = hits == tickets.size
        # The bulk probe occupies the serially booked host-side cache lane
        # (from when the block has arrived and the lane is free); a memoized
        # answer's latency is one per-query probe plus any lane queueing.
        # The block's tickets are stored *before* any miss batch serves: miss
        # rows carry unanswered placeholders (``found`` is the answered mask)
        # that their batches overwrite.
        probe_time = answer_cache_probe_time(tickets.size)
        start = max(t_last, self._backend_free_s.get(CACHE_BACKEND_KEY, 0.0))
        completion = start + probe_time
        self._backend_free_s[CACHE_BACKEND_KEY] = completion
        hit_latency = (start - t_last) + answer_cache_probe_time(1)
        if obs is not None:
            # The front-door hits form a pseudo-batch on the cache lane:
            # flush at the probe instant, kernel span for the bulk probe,
            # one cache_lane_hit completion per answered ticket.
            obs.record(EV_CACHE_HITS, t_last, replica=self._obs_replica,
                       detail=float(hits))
            if not full:
                obs.record(EV_CACHE_MISSES, t_last,
                           replica=self._obs_replica,
                           detail=float(tickets.size - hits))
            pseudo = obs.next_batch_id()
            obs.record(EV_FLUSH, t_last, batch=pseudo,
                       replica=self._obs_replica, detail=float(hits),
                       aux=obs.intern("hit"))
            obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start, completion,
                            batch=pseudo, replica=self._obs_replica,
                            detail=probe_time,
                            aux=obs.intern(CACHE_BACKEND_KEY))
            hit_tickets = tickets if full else tickets[found]
            obs.record_block(EV_CACHE_LANE_HIT, completion, hit_tickets,
                             batch=pseudo, replica=self._obs_replica,
                             detail=hit_latency)
        table = self._tickets
        window = table.window(tickets)
        table.answers[window] = values
        table.latencies[window] = hit_latency
        table.answered[window] = True if full else found
        run: List[RunItem] = []
        if not full:
            miss_pos = (~found).nonzero()[0]
            run = run_of(dataset, scheduler.submit_block(
                tickets[miss_pos], xs[miss_pos], ys[miss_pos], arrivals[miss_pos]))
        self.stats_collector.record_span([hits], ["hit"], [CACHE_BACKEND_KEY],
                                         [probe_time], hit_latency, t_first,
                                         completion, 0)
        # The block's arrivals moved time to its last timestamp: fire every
        # wait deadline that expired on the way (this dataset's pending
        # misses and other datasets alike) and serve everything in
        # flush-time order.  As on every submit path, this dataset's
        # deadlines exactly at the arrival instant stay pending so a
        # same-instant follow-up submission can still join them.
        if self._due(t_last):
            run += self._expired_batches(t_last, exclusive=dataset)
        self.clock.advance_to(t_last)
        if run:
            self._serve_run(self._in_flush_order(run))
        return True

    def _serve_run(self, run: List[RunItem]) -> None:
        """Serve an ordered run of flushed batches: answer and book each span once.

        Every batch is first offered to the interceptor, in ``run`` order: a
        claimed one (dead or transiently failing replica; the cluster
        re-dispatches it) leaves the run before anything is packed, probed
        or launched for it.  Batches of one dataset that are adjacent slices
        of one scheduler buffer (a *span*) then get one pack, probe and dedup
        (:meth:`_open_span`, at the span's first batch) and one kernel call
        and insert (:meth:`_launch_span`, at its first batch with a unique
        miss, by the artifact that batch just fetched — answers do not
        depend on the backend, and a span that only hits launches and
        fetches nothing).  Each stretch of a span's batches adjacent in the
        run too is booked by one :meth:`_finish_span` (under an observer, one
        batch at a time: events keep their order).  A one-batch run is the
        one-slice case.

        ``spans`` is local to this call (the hedge hook runs other replicas'
        code mid-run).  A batch no open span covers — another buffer after a
        reallocation, a row after a claimed batch — opens a new one: one more
        launch, never a wrong slice.
        """
        if self._serve_interceptor is not None:
            run = [(dataset, cut) for dataset, cut in run if not
                   self._serve_interceptor(dataset, FlushedBatch.of(cut))]
        cache = self.answer_cache
        # A span's one insert must not reset the table under batches whose
        # hits are already decided — its own or, with several datasets in the
        # run, another span's.  Lanes bound inserts: a run within the cache's
        # headroom cannot; any other is served as one-batch spans, whose
        # inserts reset exactly where a batch's always did.
        roomy = cache is None or sum(
            cut[2] - cut[1] for _, cut in run) <= cache.headroom
        spans: List[Optional[_Span]] = [None] * len(run)
        i, traced = 0, self._observer is not None
        while i < len(run):
            span, j = spans[i] or self._open_span(run, i, spans, roomy), i + 1
            while not traced and j < len(run) and spans[j] is span:
                j += 1
            self._finish_span(span, j - i)
            i = j

    def _open_span(self, run: List[RunItem], i: int,
                   spans: List[Optional[_Span]], roomy: bool) -> _Span:
        """Open the span that starts at ``run[i]``; plan every batch of it.

        It extends over the dataset's later batches while each starts where
        the last ended in this same buffer.  On the plain path that is all:
        every lane is a kernel query.  On the skew-aware path (``dedup`` /
        answer cache, packable ids; multi-batch in ``roomy`` runs only) it is
        canonicalized, probed against the table as it stands and sorted
        **once**, and each batch gets its two integers by first appearance:
        a lane hits iff its key was in the table or first appears in an
        *earlier* batch of the span, whose insert precedes it; a batch's
        unique misses are the distinct keys that first appear in it.  With no
        cache nothing is remembered: no hits, a batch's distinct keys miss.
        """
        dataset, cut = run[i]
        columns, lo, hi = cut[:3]
        cuts, sizes = [cut], [hi - lo]
        span = spans[i] = _Span(dataset, cuts, self._dedup
                                and self.store.tree(dataset).size <= PACK_LIMIT)
        if roomy or not span.deduped:
            for j in range(i + 1, len(run)):
                name, later = run[j]
                if name == dataset:
                    if later[0] is not columns or later[1] != hi:
                        break
                    cuts.append(later)
                    sizes.append(later[2] - hi)
                    hi, spans[j] = later[2], span
        span.xs, span.ys = columns[1][lo:hi], columns[2][lo:hi]
        n = len(sizes)
        hits, unique = [0] * n, sizes
        if span.deduped:
            cache = self.answer_cache
            keys = pack_query_pairs(span.xs, span.ys)
            found, table_hits = None, 0
            if cache is not None:
                span.space = self._dataset_rank[dataset]
                span.answers, found, table_hits = cache.lookup(span.space, keys)
            if table_hits == keys.size:
                # Every lane hit: no batch of the span reaches the launch.
                hits, unique = sizes, [0] * n
            else:
                # ``miss`` is None when nothing hit: every lane is missing
                # and no lane indexing is needed on either side of the kernel.
                miss = span.miss = (~found).nonzero()[0] if table_hits else None
                span.unique_keys, span.order, span.inverse = unique_packed_keys(
                    keys if miss is None else keys[miss])
                if n == 1:
                    hits, unique = [table_hits], [span.unique_keys.size]
                elif table_hits or span.inverse is not None:
                    # (Else the miss path: nothing hit, nothing repeats.)
                    batch_of = np.repeat(np.arange(n), sizes)
                    if miss is not None:
                        batch_of = batch_of[miss]
                    fresh, misses = first_appearance_counts(
                        span.order, span.inverse, batch_of, n,
                        carried=cache is not None)
                    hits = (np.asarray(sizes) - misses).tolist()
                    unique = fresh.tolist()
                    if cache is not None:
                        # Later-batch copies are hits in the cache's books.
                        cache.credit_hits(batch_of.size - int(misses.sum()))
        span.sizes, span.hits, span.unique = sizes, hits, unique
        return span

    def _launch_span(self, span: _Span, artifact: Any) -> int:
        """The span's one kernel call and one insert; returns the resets it cost.

        The kernel (which runs its own id and bounds checks on every lane)
        answers the span's distinct missing pairs — on the plain path, every
        lane; hit lanes keep the cached value.  Answers may be views of
        kernel scratch, valid until ``artifact`` launches again: that is this
        dataset's next span, after ``_finish_span`` has copied every slice
        of this one into the ticket tables.
        """
        span.pending = False
        miss, inverse = span.miss, span.inverse
        if inverse is None:
            # No pair repeats, so the missing lanes *are* the unique pairs:
            # the kernel runs on them in lane order (LCA is symmetric — no
            # canonical unpack, no scatter through an inverse map).
            answers = (artifact.query(span.xs, span.ys) if miss is None
                       else artifact.query(span.xs[miss], span.ys[miss]))
        else:
            unique_answers = artifact.query(
                *unpack_query_pairs(span.unique_keys))
            answers = unique_answers[inverse]
        resets = 0
        if span.space is not None:
            if inverse is None:
                # The sort order lines the answers up with ``unique_keys``.
                unique_answers = answers[span.order]
            cache = self.answer_cache
            before = cache.resets
            cache.insert(span.space, span.unique_keys, unique_answers)
            resets = cache.resets - before
        if miss is None:
            span.answers = answers
        else:
            span.answers[miss] = answers
        return resets

    def _finish_span(self, span: _Span, count: int) -> None:
        """Book the span's next ``count`` batches, adjacent in the run, at once.

        Per batch, in run order: its charge (the skew-aware probe, a cold
        index's build, the dispatcher's estimate at its unique-miss count —
        so key skew moves the CPU/GPU crossover — times any slowdown), its
        lane booking ``max(flush, lane free) + charge``, its hedge and events.
        Once for all: a dispatcher probe per distinct size, a registry fetch
        per lane (the rest credited as hits), the latencies, the table write
        and the stats record.  A batch answered entirely from the cache is
        booked on the host-side cache lane: no dispatcher, registry or hedge.
        """
        a = span.booked
        b = span.booked = a + count
        cuts, sizes, kernel = span.cuts[a:b], span.sizes[a:b], span.unique[a:b]
        dataset, obs, registry = span.dataset, self._observer, self.registry
        priced = {q: self.dispatcher.choose_with_estimate(q)
                  for q in dict.fromkeys(kernel) if q}
        lanes = [priced[q][0].key if q else CACHE_BACKEND_KEY for q in kernel]
        keys = {backend.key: self._artifact_key(dataset, backend)
                for backend, _ in priced.values()}
        # Until a batch's index is missing every fetch hits: fetch once a lane
        # in order of last use (the LRU order per-batch fetches leave) and
        # credit the rest.  From the first miss on (a build may evict), per batch.
        first_miss = min([lanes.index(lane) for lane, key in keys.items()
                          if key not in registry], default=count)
        hit_lanes, entries = lanes[:first_miss], {}
        for lane in reversed(dict.fromkeys(reversed(hit_lanes))):
            if lane in keys:
                entries[lane] = entry = registry.fetch_by_key(keys[lane])[0]
                registry.credit_hits(entry, hit_lanes.count(lane) - 1)
        # Constant over the span: the probe, the slowdown, the hooks installed.
        free, factor, probe = self._backend_free_s, self._service_factor, span.deduped
        hedge, replica = self._hedge_hook, self._obs_replica
        cache_obs = obs if span.space is not None else None
        charges, done = [], []  # done: completions, hedges won included
        for m, (cut, size, queries, lane) in enumerate(zip(cuts, sizes, kernel, lanes)):
            flush_s, batch_id = cut[3], cut[5]
            # Canonicalization + table probe are charged on every batch.
            charge = answer_cache_probe_time(size) if probe else 0.0
            if cache_obs is not None:
                hits = span.hits[a + m]
                if hits:
                    cache_obs.record(EV_CACHE_HITS, flush_s, batch=batch_id,
                                     replica=replica, detail=float(hits))
                if hits < size:
                    cache_obs.record(EV_CACHE_MISSES, flush_s, batch=batch_id,
                                     replica=replica, detail=float(size - hits))
            if queries:
                backend, estimate = priced[queries]
                if obs is not None:
                    obs.record(EV_DISPATCH, flush_s, batch=batch_id,
                               replica=replica, detail=estimate,
                               aux=obs.intern(lane))
                if m < first_miss:
                    entry = entries[lane]
                else:
                    entry, hit = registry.fetch_by_key(keys[lane],
                                                       spec=backend.spec)
                    if not hit:
                        charge += entry.build_time_s
                charge += estimate
                resets = (self._launch_span(span, entry.artifact)
                          if span.pending else 0)
                if cache_obs is not None:
                    cache_obs.record(EV_CACHE_INSERT, flush_s, batch=batch_id,
                                     replica=replica, detail=float(queries))
                    if resets:
                        cache_obs.record(EV_CACHE_RESET, flush_s,
                                         replica=replica, detail=float(resets))
                # An injected slowdown stretches kernel time (a degraded
                # device); the host-side cache lane is unaffected.
                charge *= factor
            # A batch starts once both it is flushed and its lane is free:
            # overload shows as queueing delay, not as overlapping service.
            lane_free = free.get(lane, 0.0)
            start = flush_s if flush_s >= lane_free else lane_free
            completion = free[lane] = start + charge
            effective = completion
            if queries and hedge is not None:
                # Offer the straggler to a second copy; an earlier duplicate
                # completion wins for the queries, the original lane stays
                # booked (the work is duplicated, not cancelled — the kernel
                # span below still shows the full original occupancy).
                hedged = hedge(dataset, FlushedBatch.of(cut), completion)
                if hedged is not None and hedged < completion:
                    effective = hedged
            if obs is not None:
                obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start,
                                completion, batch=batch_id, replica=replica,
                                detail=charge, aux=obs.intern(lane))
            charges.append(charge)
            done.append(effective)
        columns, lo, hi = cuts[0][0], cuts[0][1], cuts[-1][2]
        tickets, arrivals = columns[0][lo:hi], columns[3][lo:hi]
        latencies = (done[0] if count == 1 else np.repeat(done, sizes)) - arrivals
        table = self._tickets
        debt = getattr(table, "debt", None)
        if debt is not None:
            # Retried queries carry the latency accrued before this
            # (re-)admission; everyone else's slot is zero.
            latencies = latencies + debt[tickets]
        if obs is not None:
            # One batch (see _serve_run); ``own=True``: nothing mutates them.
            obs.record_block(EV_COMPLETE, done[0], tickets, batch=batch_id,
                             replica=replica, detail=latencies, own=True)
        # One slice for consecutive tickets, else a scatter.  A buffer's tickets
        # ascend until a failover first re-admits one (and makes ``debt``).
        size, at = hi - lo, lo - span.cuts[0][1]
        window = table.window(tickets, ascends=debt is None)
        table.answers[window] = span.answers[at:at + size]
        table.latencies[window] = latencies
        table.answered[window] = True
        self.stats_collector.record_span(  # arrivals are non-decreasing
            sizes, [cut[4] for cut in cuts], lanes, charges, latencies,
            arrivals.item(0), max(done), sum(kernel))

    def _artifact_key(self, dataset: str, backend: Backend) -> ArtifactKey:
        """The registry key ``backend`` serves ``dataset`` from.

        The only place a :class:`Backend` becomes an :class:`ArtifactKey`:
        serving and :meth:`warm` both come through here.
        """
        cached = self._artifact_keys.get((dataset, backend.key))
        if cached is None:
            cached = ArtifactKey(dataset, "lca", backend.spec.name, backend.variant)
            self._artifact_keys[(dataset, backend.key)] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"LCAQueryService(datasets={self.datasets}, "
                f"pending={self.pending_count()}, "
                f"answered={int(self._tickets.answered[:self.tickets_issued].sum())})")
