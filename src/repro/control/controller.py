"""The online controller: metric windows in, knob retunes out.

:class:`Controller` closes the loop the rest of the stack left open: the
services expose rich signals (:class:`~repro.service.ServiceStats`,
:class:`~repro.service.ClusterStats`) and, since the config redesign, a
hot-swap seam (``apply_tuning()``) — the controller watches the former and
drives the latter against a declarative :class:`~repro.control.slo.SLO`.

The loop, once per ``interval_s`` of simulated time:

1. **Window the signals.**  The controller reads the counters the stack
   already keeps: each worker's ``stats_collector`` (answered queries and
   its latency log) and, on a cluster, ``tickets_issued`` and
   ``queries_shed`` (offered = admitted + shed).  The window's counts are
   the differences from the previous observation's totals; the latency
   values logged since then feed one window-local
   :class:`~repro.obs.metrics.Histogram`, and the window p99 is
   :func:`~repro.obs.metrics.histogram_quantile` over it.  No ``stats()``
   snapshot is taken.
2. **Compare against the SLO** and pick a direction:

   * *Deadline-aware flushing*: the wait-flush deadline is ``oldest
     arrival + max_wait_s``, so clamping ``max_wait_s`` to a fraction of
     the p99 bound (``wait_fraction``) guarantees a batch flushes before
     its oldest admitted query has spent the latency budget queueing.
   * *Shedding above bound / throughput below floor* → the system is
     capacity-limited: double the batch size (bulk is cheaper per query on
     the batch backend), restore the wait deadline to the budget, and —
     with p99 headroom — raise the admission limit.  Capacity recovery
     outranks the latency rule: under overload, shrinking batches only
     deepens the backlog.
   * *p99 violated* (and shedding within bound) → multiplicative backoff
     on the wait deadline, the direct lever on the tail; the batch size —
     which sets the cost per query — shrinks only once the wait is
     already at its floor.
   * *Deep p99 headroom* → probe upward: grow the batch size toward the
     cost-optimal bulk regime; creep the wait deadline back toward the
     budget when a violation pushed it down.
3. **Apply** through ``apply_tuning()`` — the knobs swap at a flush
   boundary, in-flight batches are untouched, and answers are bit-identical
   to an untuned run by construction.
4. **Priority lanes.**  With :attr:`~repro.control.slo.SLO.tenant_weights`
   declared, each tenant's dataset lane gets a per-lane wait deadline of
   ``effective_wait * (min_weight / weight)`` — heavier tenants flush
   sooner — re-applied every epoch on top of the global policy.

5. **Membership** (optional).  With an
   :class:`~repro.control.autoscale.AutoscalePolicy` attached and a
   cluster target, the same windowed signals (shed rate, queue-depth
   occupancy, window p99) drive ``n_replicas`` through
   ``apply_tuning(n_replicas=...)`` →
   :meth:`~repro.service.ClusterService.scale_to` — drain-before-retire,
   live-copy safety, cooldowns and hysteresis per the policy.

Every retune is recorded as a :class:`TuningDecision` in
:attr:`Controller.decisions`, so a bench (or a test) can audit exactly
when and why the controller moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..boundary import count, duration, instant
from ..errors import ServiceError
from ..obs.metrics import Histogram, histogram_quantile
from ..service.cluster import ClusterService
from ..service.service import LCAQueryService
from .autoscale import AutoscalePolicy
from .slo import SLO

__all__ = ["Controller", "TuningDecision", "WINDOW_BUCKETS_S"]

#: Factor-2 buckets, 1 us .. ~0.13 s: finer than the reporting buckets so
#: the controller's p99 estimate tracks the bound it enforces.
WINDOW_BUCKETS_S: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(18))

_Target = Union[LCAQueryService, ClusterService]


@dataclass(frozen=True)
class TuningDecision:
    """One applied retune: when, why, and the resulting knob values."""

    #: Simulated time of the observation that triggered the retune.
    at_s: float
    #: Which rule fired: ``"p99"``, ``"shed"``, ``"throughput"``,
    #: ``"probe"`` or ``"deadline-clamp"`` (comma-joined when several) for
    #: knob retunes; ``"scale-out:<signals>"`` or ``"scale-in"`` for
    #: membership decisions.
    reason: str
    #: Knob values after the retune.
    max_batch_size: int
    max_wait_s: float
    max_pending: Optional[int]
    #: The window measurements the decision was based on.
    window_p99_s: float
    window_shed_rate: float
    window_throughput_qps: Optional[float]
    #: ``"knobs"`` for a flush-boundary knob swap, ``"membership"`` for a
    #: reactive scale decision applied through ``scale_to()``.
    kind: str = "knobs"
    #: The active replica count after a membership decision (``None`` on
    #: knob retunes).
    n_replicas: Optional[int] = None


class Controller:
    """Drives ``apply_tuning()`` from metric windows against an :class:`SLO`.

    Parameters
    ----------
    slo:
        The objectives to enforce.
    interval_s:
        Minimum simulated time between observations; calls inside the
        interval return ``None`` without touching the target.
    min_batch_size, max_batch_size, min_wait_s:
        Safety rails for the AIMD rules.
    wait_fraction:
        Fraction of the p99 bound granted to queue waiting (the
        deadline-aware flush budget).  The default leaves 20% of the
        bound for batch service time — generous for this stack, where a
        flushed batch serves in a few microseconds; lower it when service
        time is a larger share of the budget.
    max_pending_cap:
        Ceiling the admission limit may be raised to.
    autoscale:
        An optional :class:`~repro.control.autoscale.AutoscalePolicy`.
        When set and the target is a :class:`~repro.service.ClusterService`,
        every observation additionally evaluates the policy's windowed
        signals and may scale the active replica set through
        ``apply_tuning(n_replicas=...)`` — recorded as a
        ``kind="membership"`` :class:`TuningDecision`.  The first
        observation anchors the cooldowns (a fresh loop never scales at
        t=0), and a scale-in the cluster refuses for live-copy safety is
        skipped silently and re-evaluated next window.

    >>> from repro.service import LCAQueryService
    >>> ctl = Controller(SLO(p99_latency_s=1e-4), interval_s=0.0)
    >>> svc = LCAQueryService()
    >>> ctl.observe(svc, 0.0).reason    # wait deadline clamped to budget
    'deadline-clamp'
    >>> svc.policy.max_wait_s
    8e-05
    """

    def __init__(
        self,
        slo: SLO,
        *,
        interval_s: float = 1e-3,
        min_batch_size: int = 16,
        max_batch_size: int = 4096,
        min_wait_s: float = 2e-5,
        wait_fraction: float = 0.8,
        max_pending_cap: int = 65536,
        autoscale: Optional[AutoscalePolicy] = None,
    ) -> None:
        self.slo = slo
        self.interval_s = duration(interval_s, "interval_s")
        self.min_batch_size = count(min_batch_size, "min_batch_size")
        self.max_batch_size = count(max_batch_size, "max_batch_size")
        if self.min_batch_size > self.max_batch_size:
            raise ServiceError("need min_batch_size <= max_batch_size")
        self.min_wait_s = duration(min_wait_s, "min_wait_s", positive=True)
        self.wait_fraction = instant(wait_fraction, "wait_fraction")
        if not 0.0 < self.wait_fraction <= 1.0:
            raise ServiceError("wait_fraction must be in (0, 1]")
        self.max_pending_cap = count(max_pending_cap, "max_pending_cap")
        self.autoscale = autoscale
        #: Every applied retune, in order.
        self.decisions: List[TuningDecision] = []
        self._last_s: Optional[float] = None
        #: The previous observation's cumulative (answered, offered, shed).
        self._totals: Tuple[int, int, int] = (0, 0, 0)
        #: Latency values already windowed, per worker index.
        self._consumed: Dict[int, int] = {}
        #: Cooldown anchor: the most recent membership change (or the first
        #: observation, which arms the loop without scaling).
        self._last_scale_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Signal windowing
    # ------------------------------------------------------------------
    def _window(
        self, target: _Target, now_s: float
    ) -> Tuple[float, float, Optional[float], int]:
        """(p99_s, shed_rate, throughput_qps or None, answered) this window."""
        workers = target.replicas if isinstance(target, ClusterService) else (target,)
        hist = Histogram(WINDOW_BUCKETS_S)
        answered = 0
        for index, worker in enumerate(workers):
            collector = worker.stats_collector
            answered += collector.queries_answered
            values = collector.latency_values
            hist.observe_many(values[self._consumed.get(index, 0):])
            self._consumed[index] = values.size
        if isinstance(target, ClusterService):
            shed = target.queries_shed
            offered = target.tickets_issued + shed
        else:
            offered, shed = answered, 0
        totals = (answered, offered, shed)
        answered, offered, shed = (
            total - last for total, last in zip(totals, self._totals))
        self._totals = totals
        p99_s = histogram_quantile(hist.value(), 0.99, buckets=WINDOW_BUCKETS_S)
        shed_rate = shed / offered if offered > 0 else 0.0

        throughput: Optional[float] = None
        prev_s = self._last_s
        if prev_s is not None and now_s > prev_s:
            throughput = answered / (now_s - prev_s)
        return p99_s, shed_rate, throughput, answered

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def observe(
        self, target: _Target, now_s: float
    ) -> Optional[TuningDecision]:
        """Observe one window and retune ``target`` if the SLO demands it.

        Returns the applied :class:`TuningDecision`, or ``None`` when the
        call landed inside ``interval_s`` of the previous observation or
        the window required no change.  Priority lanes are (re)applied on
        every observation that runs, whether or not the global knobs moved.
        With an :class:`~repro.control.autoscale.AutoscalePolicy` attached
        and a cluster target, the membership rules run after the knob
        rules; when both fire in one window the membership decision is
        returned (both are appended to :attr:`decisions`).
        """
        if self._last_s is not None and now_s - self._last_s < self.interval_s:
            return None
        p99_s, shed_rate, throughput, answered = self._window(target, now_s)
        self._last_s = now_s

        slo = self.slo
        config = target.config
        cur_batch = int(config.max_batch_size)
        cur_wait = float(config.max_wait_s)
        budget: Optional[float] = None
        if slo.p99_latency_s is not None:
            budget = self.wait_fraction * slo.p99_latency_s

        new_batch, new_wait = cur_batch, cur_wait
        reasons: List[str] = []

        # Deadline-aware flushing: the wait deadline is oldest-arrival +
        # max_wait_s, so a wait longer than the budget lets a batch's
        # oldest query burn the whole p99 bound before it even flushes.
        if budget is not None and new_wait > budget:
            new_wait = max(self.min_wait_s, budget)
            reasons.append("deadline-clamp")

        p99_violated = slo.p99_latency_s is not None and p99_s > slo.p99_latency_s
        shed_violated = (
            slo.max_shed_rate is not None and shed_rate > slo.max_shed_rate
        )
        throughput_violated = (
            slo.min_throughput_qps is not None
            and throughput is not None
            and throughput < slo.min_throughput_qps
        )
        p99_headroom = slo.p99_latency_s is None or p99_s < 0.8 * slo.p99_latency_s

        new_pending: Optional[int] = None
        if shed_violated or throughput_violated:
            # Capacity-limited: bulk up (cheaper per query), restore the
            # wait budget, and admit more if the tail can afford it.  This
            # outranks the p99 rule — under overload, shrinking batches
            # only deepens the backlog; the tail is reclaimed once
            # shedding clears.
            new_batch = min(self.max_batch_size, new_batch * 2)
            if budget is not None:
                new_wait = max(self.min_wait_s, budget)
            if (
                isinstance(target, ClusterService)
                and config.max_pending is not None
                and p99_headroom
            ):
                new_pending = min(
                    self.max_pending_cap, config.max_pending * 3 // 2
                )
                if new_pending == config.max_pending:
                    new_pending = None
            reasons.append("shed" if shed_violated else "throughput")
        elif p99_violated:
            # Latency backoff: the wait deadline is the direct lever on
            # the tail, so halve it first and keep batches large (large
            # batches are cheap per query and a shorter deadline flushes
            # them early anyway).  Only shrink batches once the wait is
            # already at its floor.
            shorter_wait = max(self.min_wait_s, new_wait / 2.0)
            if shorter_wait < new_wait:
                new_wait = shorter_wait
            else:
                new_batch = max(self.min_batch_size, new_batch // 2)
            reasons.append("p99")
        elif (
            answered > 0  # an empty window says nothing about the tail
            and slo.p99_latency_s is not None
            and p99_s < 0.5 * slo.p99_latency_s
            and new_batch < self.max_batch_size
        ):
            new_batch = min(self.max_batch_size, new_batch * 2)
            reasons.append("probe")

        if not (p99_violated or shed_violated or throughput_violated):
            # Additive-ish re-growth: a wait shorter than the budget means
            # batches flush before they must — creep back up (1.25x per
            # window) toward the budget, where batching is cheapest while
            # the deadline guarantee still holds.
            if budget is not None and new_wait < budget:
                new_wait = min(budget, new_wait * 1.25)
                reasons.append("wait-probe")

        decision: Optional[TuningDecision] = None
        changed = (
            new_batch != cur_batch
            or new_wait != cur_wait
            or new_pending is not None
        )
        if changed:
            if isinstance(target, ClusterService):
                target.apply_tuning(
                    max_batch_size=new_batch,
                    max_wait_s=new_wait,
                    max_pending=new_pending,
                )
            else:
                target.apply_tuning(
                    max_batch_size=new_batch, max_wait_s=new_wait
                )
            decision = TuningDecision(
                at_s=float(now_s),
                reason=",".join(reasons),
                max_batch_size=new_batch,
                max_wait_s=new_wait,
                max_pending=(
                    new_pending
                    if new_pending is not None
                    else getattr(target.config, "max_pending", None)
                ),
                window_p99_s=p99_s,
                window_shed_rate=shed_rate,
                window_throughput_qps=throughput,
            )
            self.decisions.append(decision)

        self._apply_lanes(target, new_wait)

        scale: Optional[TuningDecision] = None
        if self.autoscale is not None and isinstance(target, ClusterService):
            scale = self._autoscale_step(
                target, now_s, p99_s, shed_rate, throughput
            )
        return scale if scale is not None else decision

    def _autoscale_step(
        self,
        cluster: ClusterService,
        now_s: float,
        p99_s: float,
        shed_rate: float,
        throughput: Optional[float],
    ) -> Optional[TuningDecision]:
        """Evaluate the autoscale policy over this window; maybe scale.

        Scale-out fires when *any* selected signal breaches its out
        threshold; scale-in only when *every* selected signal is at or
        below its calm threshold (hysteresis).  Both directions respect
        their cooldowns, measured from the most recent membership change.
        A scale-in the cluster refuses (live-copy safety) is skipped and
        re-evaluated next window.
        """
        policy = self.autoscale
        assert policy is not None
        if self._last_scale_s is None:
            # The first observation anchors the cooldowns: a fresh loop
            # neither scales out on an empty window nor scales in at t=0.
            self._last_scale_s = float(now_s)
            return None
        cap = cluster.config.max_pending
        occupancy = cluster.pending_count() / cap if cap else 0.0
        values = {"shed": shed_rate, "queue": occupancy, "p99": p99_s}
        breached = [
            s for s in policy.signals if values[s] > policy.out_threshold(s)
        ]
        calm = all(
            values[s] <= policy.in_threshold(s) for s in policy.signals
        )
        n = cluster.n_active
        elapsed = now_s - self._last_scale_s
        target_n: Optional[int] = None
        reason = ""
        if breached and n < policy.max_replicas:
            if elapsed >= policy.cooldown_out_s:
                target_n = min(policy.max_replicas, n + policy.step_out)
                reason = "scale-out:" + ",".join(breached)
        elif calm and n > policy.min_replicas:
            if elapsed >= policy.cooldown_in_s:
                target_n = max(policy.min_replicas, n - policy.step_in)
                reason = "scale-in"
        if target_n is None or target_n == n:
            return None
        try:
            cluster.apply_tuning(n_replicas=target_n)
        except ServiceError:
            # Live-copy safety refused the retirement; membership stays
            # where the cluster left it and the window is re-evaluated
            # after the next one.
            return None
        self._last_scale_s = float(now_s)
        config = cluster.config
        decision = TuningDecision(
            at_s=float(now_s),
            reason=reason,
            max_batch_size=int(config.max_batch_size),
            max_wait_s=float(config.max_wait_s),
            max_pending=config.max_pending,
            window_p99_s=p99_s,
            window_shed_rate=shed_rate,
            window_throughput_qps=throughput,
            kind="membership",
            n_replicas=cluster.n_active,
        )
        self.decisions.append(decision)
        return decision

    def _apply_lanes(self, target: _Target, effective_wait_s: float) -> None:
        """Re-apply per-tenant wait deadlines on top of the global policy.

        Heavier tenants get proportionally shorter lanes:
        ``lane_wait = effective_wait * (min_weight / weight)``.  The
        heaviest declared tenant therefore flushes first under load; no
        lane ever waits longer than the global (budget-clamped) deadline.
        """
        weights = self.slo.tenant_weights
        if not weights:
            return
        min_weight = min(weight for _, weight in weights)
        for dataset, weight in weights:
            if dataset not in target.datasets:
                continue
            lane_wait = max(
                self.min_wait_s, effective_wait_s * (min_weight / weight)
            )
            target.apply_tuning(dataset=dataset, max_wait_s=lane_wait)
