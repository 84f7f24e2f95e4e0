"""Replay a :class:`~repro.workloads.scenario.Scenario` against a service.

:func:`replay` is the bridge between the declarative scenario world and the
serving stack: it registers the scenario's trees on any
:class:`~repro.service.LCAQueryService` or
:class:`~repro.service.ClusterService`, generates the full timed query trace
(arrivals, dataset assignment, keys — all from the scenario seed), feeds it
to the target in vectorized column blocks, and distills the outcome into a
:class:`ScenarioReport` with per-phase throughput, tail latency and shed
accounting.

Two mechanical details make the replay faithful:

* **Admission windows.**  The trace is cut at ``admission_window_s``
  boundaries (and at dataset-run boundaries for multi-source scenarios)
  before submission, so each ``submit_many`` block covers a bounded slice
  of simulated time.  That is how a real front door behaves — admission
  control and routing observe queue depths every tick, not once per
  workload — and it is what lets a bounded cluster shed a flash crowd: a
  burst that lands more queries in one window than the queue has room for
  raises :class:`~repro.errors.Overloaded`, which the harness absorbs and
  counts (partial admissions are recovered exactly via
  :attr:`~repro.service.LCAQueryService.tickets_issued`).
* **Deterministic draw order.**  Arrivals and the dataset mix come from one
  generator seeded with the scenario seed; each source's keys come from its
  own generator, sampled in bulk per phase.  Reproducibility therefore
  survives any change to how the harness chunks its submissions.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from ..boundary import Check, settle, workload_count, workload_number
from ..control import Controller
from ..errors import ConfigurationError, Overloaded
from ..graphs.generators import random_attachment_tree
from ..lca import BinaryLiftingLCA
from ..obs.events import TraceRecorder, TraceTable
from ..service import ClusterService, ClusterStats, LCAQueryService, ServiceStats
from ..service.stats import dedup_factor as _dedup_factor
from ..service.stats import hit_rate as _hit_rate
from .scenario import Scenario

__all__ = ["PhaseReport", "RetryPolicy", "ScenarioReport", "replay"]

#: Either serving front door; the harness only uses their shared surface
#: (register_tree / submit_many / drain / latencies / stats / tickets_issued).
ServiceTarget = Union[LCAQueryService, ClusterService]


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded client-side retry of :class:`~repro.errors.Overloaded` sheds.

    When passed to :func:`replay`, queries rejected by admission control are
    re-submitted after a capped exponential backoff instead of being dropped
    on the floor: retry ``k`` (1-based) is due ``base_backoff_s * 2**(k-1)``
    seconds after the rejection, capped at ``max_backoff_s`` and jittered by
    a ``±jitter`` fraction drawn from a generator seeded with ``seed`` — the
    retry schedule is part of the workload spec, so two replays with the
    same policy offer identical retry traffic.  A query still shed after
    ``max_attempts`` retries is *abandoned*.

    Retries are offered traffic like any other: an admitted retry counts
    into :attr:`PhaseReport.queries_admitted` (and ``queries_retried``) of
    the phase whose blocks it rode in with, so ``admitted + shed`` may
    exceed ``offered`` — the original rejection already counted as shed.

    >>> RetryPolicy(max_attempts=2).max_attempts
    2
    >>> RetryPolicy(base_backoff_s=0.0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: base_backoff_s must be positive
    """

    #: Delay before the first retry, seconds; doubles per attempt.
    base_backoff_s: float = 2e-3
    #: Backoff ceiling, seconds.
    max_backoff_s: float = 32e-3
    #: Retries per query before it is abandoned.
    max_attempts: int = 3
    #: Multiplicative jitter fraction (0 disables jitter).
    jitter: float = 0.1
    #: Seed for the jitter draws.
    seed: int = 0

    CHECKS: ClassVar[Dict[str, Check]] = dict(
        base_backoff_s=partial(workload_number, positive=True),
        max_backoff_s=workload_number, max_attempts=workload_count,
        jitter=workload_number, seed=partial(workload_count, least=0))

    def __post_init__(self) -> None:
        settle(self, self.CHECKS)
        if self.max_backoff_s < self.base_backoff_s:
            raise ConfigurationError(
                "max_backoff_s must be at least base_backoff_s"
            )
        if self.jitter >= 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered delay before retry number ``attempt`` (0-based)."""
        delay = min(self.base_backoff_s * 2.0**attempt, self.max_backoff_s)
        if self.jitter:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


@dataclass(frozen=True)
class PhaseReport:
    """Outcome of one scenario phase."""

    #: Phase name from the scenario spec.
    name: str
    #: Configured phase duration (offered-load window), seconds.
    duration_s: float
    #: Arrivals generated / admitted / rejected by admission control.
    queries_offered: int
    queries_admitted: int
    queries_shed: int
    #: Offered and delivered rates over the phase duration.
    offered_qps: float
    delivered_qps: float
    #: Fraction of this phase's arrivals shed.
    shed_rate: float
    #: Modeled end-to-end latency percentiles of the phase's admitted
    #: queries (0.0 when nothing was admitted).
    latency_p50_s: float
    latency_p99_s: float
    #: Answer-cache hit rate over the lookups performed while this phase's
    #: blocks were being admitted (0.0 when the target runs without an
    #: answer cache).  Batches still pending at the phase boundary are
    #: attributed to the phase that flushes them; the trailing drain counts
    #: toward the final phase.
    answer_cache_hit_rate: float = 0.0
    #: Client-side retries admitted while this phase's blocks were being
    #: submitted, and queries abandoned after exhausting their
    #: :class:`RetryPolicy` budget (both 0 without a retry policy).  Retries
    #: count into :attr:`queries_admitted` too, so ``admitted + shed`` may
    #: exceed ``offered``; retries left pending at the end of the trace are
    #: flushed into the final phase.
    queries_retried: int = 0
    queries_abandoned: int = 0
    #: Host wall-clock seconds this phase spent inside ``submit_many``
    #: (a measurement of the harness, not of the modeled outcome — excluded
    #: from equality so deterministic replays still compare equal).
    submit_wall_s: float = field(default=0.0, compare=False)
    #: Active replica count when the phase's last block had been submitted
    #: (1 for a single-node service).  Static membership keeps this at the
    #: construction count; reactive autoscaling makes it the per-phase
    #: scale trajectory.
    n_replicas_end: int = 1


@dataclass(frozen=True)
class ScenarioReport:
    """Full outcome of one scenario replay.

    Per-phase rows live in :attr:`phases`; the totals summarize the whole
    replayed trace, and :attr:`stats` keeps the target's
    :class:`~repro.service.ServiceStats` snapshot for drill-down (cache
    behaviour, batch histograms) — for a cluster a
    :class:`~repro.service.ClusterStats`: the same fields merged over the
    workers, plus the cluster's own (per-replica loads, shed, faults).
    Totals assume the target was fresh when :func:`replay` started —
    replaying onto a service that already answered other traffic folds that
    traffic into :attr:`stats` (but not into the per-phase rows).
    """

    scenario: str
    #: ``"service"`` or ``"cluster"``.
    target_kind: str
    n_replicas: int
    #: Router policy name (empty for a single-node service).
    router_policy: str
    phases: Tuple[PhaseReport, ...]
    queries_offered: int
    queries_admitted: int
    queries_shed: int
    shed_rate: float
    #: Modeled span and delivered throughput of the whole replay.
    span_s: float
    throughput_qps: float
    #: Latency percentiles over every admitted query of the replay.
    latency_p50_s: float
    latency_p99_s: float
    #: Max/mean answered-query load across replicas (1.0 for a single node).
    load_imbalance: float
    #: The target's stats snapshot taken after the final drain.
    stats: ServiceStats
    #: Answer-cache hit rate and dedup factor over *this replay's* lookups
    #: and batches (counter deltas, so a reused target reports the replay,
    #: not its lifetime; 0.0 / 1.0 without the skew-aware path, ``inf``
    #: dedup when every answer came from the cache).
    answer_cache_hit_rate: float = 0.0
    dedup_factor: float = 1.0
    #: Client-retry totals across phases (0 without a :class:`RetryPolicy`).
    queries_retried: int = 0
    queries_abandoned: int = 0
    #: Host wall-clock seconds spent inside the serving calls (submit_many,
    #: drain, latencies) — trace generation excluded.  The skew benchmark
    #: derives its wall-clock throughput from this.
    serve_wall_s: float = 0.0
    #: Per-stage split of :attr:`serve_wall_s` (``submit_wall_s +
    #: drain_wall_s + latencies_wall_s == serve_wall_s``); verification
    #: against the oracle is timed separately and not part of serving.
    submit_wall_s: float = 0.0
    drain_wall_s: float = 0.0
    latencies_wall_s: float = 0.0
    verify_wall_s: float = 0.0
    #: The lifecycle trace captured during this replay, when an observer
    #: was passed to :func:`replay` (``None`` otherwise).
    trace: Optional[TraceTable] = None
    #: Per-dataset p99 over this replay's admitted queries, as sorted
    #: ``(dataset, p99_s)`` pairs — how each tenant of a multi-source
    #: scenario experienced the tail (priority lanes show up here).
    dataset_latency_p99_s: Tuple[Tuple[str, float], ...] = ()

    def format(self) -> str:
        """Render the report as an aligned text block."""
        where = (
            f"{self.n_replicas}-replica cluster "
            f"({self.router_policy} router)"
            if self.target_kind == "cluster"
            else "single-node service"
        )
        lines = [
            f"scenario           : {self.scenario} on {where}",
            f"queries            : {self.queries_offered} offered, "
            f"{self.queries_admitted} admitted, {self.queries_shed} shed "
            f"({self.shed_rate:.1%})",
        ]
        if self.queries_retried or self.queries_abandoned:
            lines.append(
                f"client retries     : {self.queries_retried} admitted on "
                f"retry, {self.queries_abandoned} abandoned"
            )
        lines += [
            f"throughput         : {self.throughput_qps:,.0f} queries/s "
            f"over {self.span_s * 1e3:.3f} ms modeled span",
            f"latency p50/p99    : {self.latency_p50_s * 1e6:.2f} / "
            f"{self.latency_p99_s * 1e6:.2f} us",
            f"load imbalance     : {self.load_imbalance:.2f}x",
            f"answer cache       : {self.answer_cache_hit_rate:.1%} hit rate, "
            f"dedup factor {self.dedup_factor:.2f}x",
        ]
        if self.serve_wall_s:
            lines.append(
                f"host wall          : {self.serve_wall_s * 1e3:.1f} ms "
                f"serving (submit {self.submit_wall_s * 1e3:.1f} + drain "
                f"{self.drain_wall_s * 1e3:.1f} + latencies "
                f"{self.latencies_wall_s * 1e3:.1f})"
            )
        lines += [
            "",
            f"{'phase':<12} {'dur ms':>8} {'offered':>9} {'admitted':>9} "
            f"{'shed':>8} {'offered q/s':>12} {'delivered q/s':>14} "
            f"{'p50 us':>9} {'p99 us':>9} {'hit %':>7}",
        ]
        for p in self.phases:
            lines.append(
                f"{p.name:<12} {p.duration_s * 1e3:>8.2f} "
                f"{p.queries_offered:>9} {p.queries_admitted:>9} "
                f"{p.queries_shed:>8} {p.offered_qps:>12,.0f} "
                f"{p.delivered_qps:>14,.0f} {p.latency_p50_s * 1e6:>9.2f} "
                f"{p.latency_p99_s * 1e6:>9.2f} "
                f"{p.answer_cache_hit_rate:>6.1%}"
            )
        return "\n".join(lines)


def _register_sources(
    target: ServiceTarget, scenario: Scenario, warm: bool
) -> Dict[str, int]:
    """Register (and optionally warm) every source; return dataset sizes."""
    sizes: Dict[str, int] = {}
    for source in scenario.sources:
        if source.dataset not in target.datasets:
            parents = random_attachment_tree(source.nodes, seed=source.tree_seed)
            if isinstance(target, ClusterService):
                # A source without an explicit replica count registers in
                # tracked all-active mode (replicas=0): placement follows
                # membership, so replicas added mid-replay (reactive
                # autoscaling, fault schedules) start serving the dataset.
                # With static membership this is identical to pinning the
                # count at n_replicas.
                replicas = (min(source.replicas, target.n_replicas)
                            if source.replicas else 0)
                target.register_tree(source.dataset, parents, replicas=replicas)
            else:
                target.register_tree(source.dataset, parents)
        if warm:
            target.warm(source.dataset)
        sizes[source.dataset] = int(target.store.tree(source.dataset).size)
    return sizes


def _counters(target: ServiceTarget) -> Tuple[int, int, int, int]:
    """Answer-cache hits and misses, queries answered and kernel queries,
    summed over the target's workers: what a phase boundary reads, without
    the percentile passes of a ``stats()`` snapshot."""
    workers = target.workers
    caches = [w.answer_cache for w in workers if w.answer_cache is not None]
    return (sum(c.hits for c in caches), sum(c.misses for c in caches),
            sum(w.stats_collector.queries_answered for w in workers),
            sum(w.stats_collector.kernel_queries for w in workers))


def _percentiles(latencies: np.ndarray) -> Tuple[float, float]:
    if latencies.size == 0:
        return 0.0, 0.0
    p50, p99 = np.percentile(latencies, [50.0, 99.0])
    return float(p50), float(p99)


def replay(
    target: ServiceTarget,
    scenario: Scenario,
    *,
    admission_window_s: float = 5e-3,
    warm: bool = True,
    check_answers: bool = False,
    seed: Optional[int] = None,
    observer: Optional[TraceRecorder] = None,
    retry: Optional[RetryPolicy] = None,
    controller: Optional[Controller] = None,
) -> ScenarioReport:
    """Feed ``scenario`` to ``target`` in column blocks; report the outcome.

    Trees the scenario names that the target does not already serve are
    registered (generated from the scenario's tree seeds); ``warm``
    prebuilds their index artifacts so the report measures steady-state
    serving rather than one-time index builds.  Submissions that overflow a
    bounded cluster queue are absorbed: the raised
    :class:`~repro.errors.Overloaded` is counted into the phase's shed
    column and the partially admitted prefix keeps its tickets.  With
    ``check_answers`` every fully admitted block is verified against the
    binary-lifting oracle after the drain.

    ``seed`` overrides the scenario's trace seed for this replay only — a
    fresh *realization* of the same workload (new arrival times, new key
    draws) over the same trees and, for pool-based key distributions, the
    same query pools (their ``pool_seed`` is part of the workload spec, not
    of the trace).  Sources with an explicit ``key_seed`` keep it.  The
    skew benchmark uses this to measure steady-state serving on fresh
    traffic instead of replaying one memorized trace.

    ``observer`` attaches a :class:`~repro.obs.events.TraceRecorder` to the
    target for the duration of the replay (and leaves it attached); the
    captured table is returned on :attr:`ScenarioReport.trace`.

    ``retry`` enables seeded client-side retry of shed queries (see
    :class:`RetryPolicy`): each queued retry is re-submitted once simulated
    time reaches its backoff deadline, interleaved with the original trace,
    and queries that exhaust the budget are counted as abandoned.  Note
    that a cluster replayed under fault injection retries *server-side*
    failovers internally; this knob only re-offers admission-control
    rejections.  :class:`~repro.errors.ReplicaDown` — no live copy left for
    an admitted query — is a service failure, not load shedding, and
    propagates out of ``replay`` unhandled.

    ``controller`` runs a :class:`~repro.control.Controller` observation
    before the first block (so deadline clamps and priority lanes hold from
    the very first arrival) and after every submitted block (the
    controller's own ``interval_s`` gates how often it actually retunes),
    closing the SLO loop while the trace is in flight.  Retuning swaps
    knobs at flush boundaries only, so a controlled replay with
    ``check_answers`` still verifies bit-identical against the oracle.

    >>> from repro.service import LCAQueryService
    >>> from repro.workloads import make_scenario
    >>> svc = LCAQueryService()
    >>> report = replay(svc, make_scenario("steady", scale=0.1))
    >>> report.queries_shed         # a single node never sheds
    0
    >>> report.queries_admitted == report.queries_offered > 0
    True
    """
    admission_window_s = workload_number(
        admission_window_s, "admission_window_s", positive=True)
    if observer is not None:
        target.attach_observer(observer)
    else:
        # A recorder attached before the call still yields a report trace.
        observer = target.observer
    sizes = _register_sources(target, scenario, warm)
    sources = scenario.sources
    weights = np.array([s.weight for s in sources], dtype=np.float64)
    weights /= weights.sum()
    trace_seed = scenario.seed if seed is None else int(seed)
    arrival_rng = np.random.default_rng(trace_seed)
    key_rngs = {
        source.dataset: np.random.default_rng(
            trace_seed + 1 + index
            if source.key_seed is None
            else source.key_seed
        )
        for index, source in enumerate(sources)
    }

    # (dataset, xs, ys, tickets) of fully admitted blocks, for check_answers.
    verified_runs: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
    phase_tickets: List[List[np.ndarray]] = []
    phase_raw: List[Tuple[str, float, int, int]] = []  # name, dur, offered, shed
    # Per-phase mutable [retried, abandoned] counters; the helpers below
    # charge whichever phase is current when a retry lands or gives up.
    phase_retry: List[List[int]] = []
    retry_rng = np.random.default_rng(retry.seed) if retry is not None else None
    # (due_s, seq, dataset, xs, ys, attempt); seq breaks ties because numpy
    # arrays do not order.
    retry_heap: List[Tuple[float, int, str, np.ndarray, np.ndarray, int]] = []
    retry_seq = 0
    tickets: List[np.ndarray] = []
    # Whole-replay admitted tickets per dataset, for per-tenant percentiles.
    dataset_tickets: Dict[str, List[np.ndarray]] = {}

    def _queue_retry(
        dataset: str,
        rx: np.ndarray,
        ry: np.ndarray,
        rejected_s: float,
        attempt: int,
    ) -> None:
        nonlocal retry_seq
        assert retry is not None and retry_rng is not None
        if attempt > retry.max_attempts:
            phase_retry[-1][1] += int(rx.size)
            return
        due = rejected_s + retry.backoff_s(attempt - 1, retry_rng)
        heapq.heappush(retry_heap, (due, retry_seq, dataset, rx, ry, attempt))
        retry_seq += 1

    def _submit(dataset: str, bx: np.ndarray, by: np.ndarray,
                at: np.ndarray) -> Optional[Overloaded]:
        """Timed ``submit_many``: book the admitted tickets, return a refusal."""
        before = target.tickets_issued
        started = time.perf_counter()
        refusal: Optional[Overloaded] = None
        try:
            block = target.submit_many(dataset, bx, by, at=at)
        except Overloaded as exc:
            block = np.arange(before, before + exc.admitted, dtype=np.int64)
            refusal = exc
        wall["submit"] += time.perf_counter() - started
        if block.size:
            tickets.append(block)
            dataset_tickets.setdefault(dataset, []).append(block)
        if refusal is None and check_answers:
            verified_runs.append((dataset, bx, by, block))
        return refusal

    def _flush_retries(upto: Optional[float]) -> None:
        """Submit queued retries due by ``upto`` (all of them when ``None``)."""
        while retry_heap and (upto is None or retry_heap[0][0] <= upto):
            due, _, dataset, rx, ry, attempt = heapq.heappop(retry_heap)
            at_s = max(due, target.clock.now)
            refusal = _submit(dataset, rx, ry, np.full(rx.size, at_s))
            admitted = rx.size if refusal is None else refusal.admitted
            phase_retry[-1][0] += int(admitted)
            if refusal is not None:
                _queue_retry(dataset, rx[admitted:], ry[admitted:], at_s,
                             attempt + 1)

    # The target's counters at each phase boundary; phase i's answer-cache
    # hit rate is the delta between boundaries i and i+1.
    marks = [_counters(target)]
    # Active replica count at each phase boundary (autoscaling trajectory).
    phase_replicas: List[int] = []
    # Host wall-clock seconds inside each serving stage (and verification).
    wall = dict.fromkeys(("submit", "drain", "latencies", "verify"), 0.0)
    phase_submit_wall: List[float] = []

    if controller is not None:
        # Pre-flight observation: deadline clamps and priority lanes take
        # effect before the first arrival, not one admission window in.
        controller.observe(target, target.clock.now)
    t0 = target.clock.now
    for phase in scenario.phases:
        arrivals = phase.arrivals.generate(t0, phase.duration_s, arrival_rng)
        count = int(arrivals.size)
        if len(sources) > 1:
            strides = -(-count // scenario.mix_stride)  # ceil division
            picks = arrival_rng.choice(len(sources), size=strides, p=weights)
            assignment = np.repeat(picks, scenario.mix_stride)[:count]
        else:
            assignment = np.zeros(count, dtype=np.int64)
        xs = np.empty(count, dtype=np.int64)
        ys = np.empty(count, dtype=np.int64)
        for index, source in enumerate(sources):
            positions = np.flatnonzero(assignment == index)
            if positions.size:
                sx, sy = source.keys.sample(
                    key_rngs[source.dataset],
                    int(positions.size),
                    sizes[source.dataset],
                )
                xs[positions] = sx
                ys[positions] = sy

        # Block edges: every admission-window boundary plus every dataset
        # run boundary, deduplicated — each block is one submit_many call.
        n_windows = int(np.ceil(phase.duration_s / admission_window_s))
        window_bounds = t0 + admission_window_s * np.arange(1, n_windows + 1)
        window_edges = np.searchsorted(arrivals, window_bounds)
        run_edges = np.flatnonzero(np.diff(assignment) != 0) + 1
        edges = np.unique(
            np.concatenate([[0], run_edges, window_edges, [count]]).astype(np.int64)
        )

        tickets = []
        shed = 0
        phase_retry.append([0, 0])
        submit_wall_0 = wall["submit"]
        for a, b in zip(edges[:-1], edges[1:]):
            if b <= a:
                continue
            if retry is not None:
                _flush_retries(float(arrivals[a]))
            dataset = sources[int(assignment[a])].dataset
            refusal = _submit(dataset, xs[a:b], ys[a:b], arrivals[a:b])
            if refusal is not None:
                shed += refusal.shed
                if retry is not None and refusal.shed:
                    first = a + refusal.admitted
                    last = first + refusal.shed
                    _queue_retry(dataset, xs[first:last], ys[first:last],
                                 float(arrivals[first]), 1)
            if controller is not None:
                controller.observe(target, target.clock.now)
        phase_submit_wall.append(wall["submit"] - submit_wall_0)
        phase_tickets.append(tickets)
        phase_raw.append((phase.name, phase.duration_s, count, shed))
        if len(phase_raw) < len(scenario.phases):  # the last is marked post-drain
            marks.append(_counters(target))
        phase_replicas.append(target.n_active)
        t0 += phase.duration_s

    if retry is not None:
        # Late backoffs land past the last arrival; flush them (into the
        # final phase's accounting) before the drain.
        _flush_retries(None)
    started = time.perf_counter()
    target.drain()
    wall["drain"] = time.perf_counter() - started
    # The drain's lookups belong to the final phase's boundary.
    stats = target.stats()
    marks.append(_counters(target))
    if isinstance(stats, ClusterStats):
        target_kind, n_replicas = "cluster", stats.n_replicas
        router_policy, load_imbalance = stats.router_policy, stats.load_imbalance
    else:
        target_kind, n_replicas, router_policy, load_imbalance = "service", 1, "", 1.0

    if check_answers:
        started = time.perf_counter()
        by_dataset: Dict[str, List[Tuple[np.ndarray, ...]]] = {}
        for dataset, bx, by, bt in verified_runs:
            by_dataset.setdefault(dataset, []).append((bx, by, bt))
        for dataset, runs in by_dataset.items():
            vx = np.concatenate([r[0] for r in runs])
            vy = np.concatenate([r[1] for r in runs])
            vt = np.concatenate([r[2] for r in runs])
            oracle = BinaryLiftingLCA(target.store.tree(dataset))
            if not np.array_equal(target.results(vt), oracle.query(vx, vy)):
                raise AssertionError(
                    f"replayed answers disagree with the oracle on "
                    f"{dataset!r} ({scenario.name})"
                )
        wall["verify"] = time.perf_counter() - started

    phases: List[PhaseReport] = []
    all_latencies: List[np.ndarray] = []
    for index, ((name, duration, offered, shed), tickets) in enumerate(
        zip(phase_raw, phase_tickets)
    ):
        admitted = int(sum(t.size for t in tickets))
        if admitted:
            started = time.perf_counter()
            latencies = target.latencies(np.concatenate(tickets))
            wall["latencies"] += time.perf_counter() - started
            all_latencies.append(latencies)
        else:
            latencies = np.empty(0, dtype=np.float64)
        p50, p99 = _percentiles(latencies)
        before, after = marks[index], marks[index + 1]
        phases.append(
            PhaseReport(
                name=name,
                duration_s=duration,
                queries_offered=offered,
                queries_admitted=admitted,
                queries_shed=shed,
                offered_qps=offered / duration,
                delivered_qps=admitted / duration,
                shed_rate=shed / offered if offered else 0.0,
                latency_p50_s=p50,
                latency_p99_s=p99,
                answer_cache_hit_rate=_hit_rate(after[0] - before[0],
                                                after[1] - before[1]),
                queries_retried=phase_retry[index][0],
                queries_abandoned=phase_retry[index][1],
                submit_wall_s=phase_submit_wall[index],
                n_replicas_end=phase_replicas[index],
            )
        )

    merged = (
        np.concatenate(all_latencies)
        if all_latencies
        else np.empty(0, dtype=np.float64)
    )
    p50, p99 = _percentiles(merged)
    # Per-tenant tails (untimed: reporting, not serving).
    dataset_p99: List[Tuple[str, float]] = []
    for name in sorted(dataset_tickets):
        lat = target.latencies(np.concatenate(dataset_tickets[name]))
        dataset_p99.append((name, _percentiles(lat)[1]))
    offered_total = sum(p.queries_offered for p in phases)
    admitted_total = sum(p.queries_admitted for p in phases)
    shed_total = sum(p.queries_shed for p in phases)
    first, last = marks[0], marks[-1]
    return ScenarioReport(
        scenario=scenario.name,
        target_kind=target_kind,
        n_replicas=n_replicas,
        router_policy=router_policy,
        phases=tuple(phases),
        queries_offered=offered_total,
        queries_admitted=admitted_total,
        queries_shed=shed_total,
        shed_rate=shed_total / offered_total if offered_total else 0.0,
        span_s=stats.span_s,
        throughput_qps=stats.throughput_qps,
        latency_p50_s=p50,
        latency_p99_s=p99,
        load_imbalance=load_imbalance,
        stats=stats,
        answer_cache_hit_rate=_hit_rate(last[0] - first[0], last[1] - first[1]),
        dedup_factor=_dedup_factor(last[2] - first[2], last[3] - first[3]),
        queries_retried=sum(p.queries_retried for p in phases),
        queries_abandoned=sum(p.queries_abandoned for p in phases),
        serve_wall_s=wall["submit"] + wall["drain"] + wall["latencies"],
        submit_wall_s=wall["submit"],
        drain_wall_s=wall["drain"],
        latencies_wall_s=wall["latencies"],
        verify_wall_s=wall["verify"],
        trace=observer.table() if observer is not None else None,
        dataset_latency_p99_s=tuple(dataset_p99),
    )
