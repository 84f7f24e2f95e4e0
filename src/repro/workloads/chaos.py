"""Chaos scenario family: scripted faults riding on replayed traffic.

A :class:`ChaosScenario` pairs a plain traffic
:class:`~repro.workloads.scenario.Scenario` with a deterministic fault
schedule (:class:`~repro.service.faults.FaultEvent` tuples); hedging is a
cluster knob, not part of a scenario.  Replaying one against a
:class:`~repro.service.ClusterService`
exercises the fault-tolerance layer end to end: kills land mid-phase so the
per-phase report isolates the outage window, recoveries land on phase
boundaries, and the cluster's retry/failover machinery must keep every
admitted query answered — :func:`~repro.workloads.replay.replay` verifies
bit-identical answers against the oracle when asked.

The family (``make_chaos_scenario`` names):

``chaos-replica-kill``
    Steady load in three phases (*pre* / *outage* / *post*); replica 0 is
    killed at the start of *outage* and recovered at its end.  The outage
    phase's ``latency_p99_s`` is the kill-window tail the chaos benchmark
    gates in CI.
``chaos-kill-flash``
    A flash crowd whose spike coincides with a replica kill — admission
    control sheds *and* failover retries at once — followed by a seeded
    Poisson storm of transient batch failures during the recovery phase.
``chaos-rolling-restart``
    Every replica is killed and recovered in sequence, one per phase, as in
    a rolling deploy; no phase ever loses more than one replica.
``chaos-scale-out``
    Load on a 2-copy placement; a fresh replica joins mid-trace
    (``add_replica``) and the original replica 0 is drained and retired
    afterwards, forcing an index handoff while traffic keeps flowing.
``chaos-autoscale``
    The kill-flash traffic shape with the kill but *no scripted membership
    help*: replica 0 dies as the flash crowd hits, and restoring capacity
    is left to a reactive controller
    (``replay_chaos(..., controller=Controller(slo, autoscale=policy))``).
    Replayed without a controller it is simply a harder kill-flash.

Fault times are absolute simulated seconds from the replay start, so chaos
scenarios assume a cluster whose clock starts at ``0.0`` (the default);
:func:`replay_chaos` builds one.  Transient-fault timing reuses the seeded
Poisson arrival machinery, so fault schedules are as reproducible as the
traffic they disturb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..control import Controller
from ..errors import ConfigurationError
from ..obs.events import TraceRecorder
from ..service import ClusterConfig, ClusterService
from ..service.faults import FaultEvent, FaultInjector
from .arrivals import PoissonArrivals
from .replay import RetryPolicy, ScenarioReport, replay
from .scenario import _MIN_PHASE_S, Phase, Scenario, TrafficSource

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosScenario",
    "make_chaos_scenario",
    "replay_chaos",
    "transient_storm",
]


@dataclass(frozen=True)
class ChaosScenario:
    """A traffic scenario plus the fault schedule injected while it runs."""

    #: The traffic side — replayed unchanged.
    scenario: Scenario
    #: Scripted faults, in any order; the injector sorts by time.
    events: Tuple[FaultEvent, ...]
    #: One-line human description.
    description: str = ""

    @property
    def name(self) -> str:
        """The underlying scenario's name."""
        return self.scenario.name

    def injector(self) -> FaultInjector:
        """A fresh, unconsumed injector for one replay.

        Injectors are stateful cursors; every replay needs its own.
        """
        return FaultInjector(self.events)

    def min_replicas(self) -> int:
        """Smallest cluster this schedule targets without membership help.

        The highest replica id named by a non-``add`` event, plus one —
        events that fire after an ``add`` may target the minted id, so
        :func:`replay_chaos` validates against the add-adjusted count.
        """
        fixed = [e.replica for e in self.events if e.action != "add"]
        return max(fixed, default=0) + 1


def _dur(seconds: float, scale: float) -> float:
    return max(_MIN_PHASE_S, seconds * scale)


def transient_storm(
    rate_per_s: float,
    duration_s: float,
    *,
    replica: int,
    seed: int,
    t0: float = 0.0,
) -> Tuple[FaultEvent, ...]:
    """Poisson-timed transient batch failures on one replica.

    Each event fails exactly one batch served by ``replica`` (the cluster
    retries it on another copy).  Timing reuses the seeded
    :class:`~repro.workloads.arrivals.PoissonArrivals` process, so the storm
    is as reproducible as the traffic it disturbs.

    >>> storm = transient_storm(200.0, 0.05, replica=1, seed=7)
    >>> all(e.action == "transient" and e.replica == 1 for e in storm)
    True
    >>> storm == transient_storm(200.0, 0.05, replica=1, seed=7)
    True
    """
    times = PoissonArrivals(rate_per_s).generate(
        t0, duration_s, np.random.default_rng(seed)
    )
    return tuple(
        FaultEvent(float(t), "transient", replica=replica) for t in times
    )


def _source(seed: int, nodes_scale: float, *, replicas: int = 0) -> TrafficSource:
    return TrafficSource(
        dataset="chaos",
        nodes=max(64, int(16384 * nodes_scale)),
        tree_seed=seed,
        key_seed=seed + 1,
        replicas=replicas,
    )


def replica_kill(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> ChaosScenario:
    """Kill one replica mid-steady-state, recover it one phase later.

    The kill lands a quarter of the way *into* the short outage phase, not
    on its boundary: the queries the kill strands arrived just before it,
    so a boundary kill would charge their inflated retry latencies to the
    healthy phase before it.  Landing mid-phase keeps the whole blast
    radius — stranded arrivals, eviction, failover — inside the outage
    phase, whose ``latency_p99_s`` is the kill-window tail the chaos
    benchmark gates in CI.
    """
    rate = 150_000.0
    pre = _dur(0.08, scale)
    outage = _dur(0.02, scale)
    post = _dur(0.08, scale)
    scenario = Scenario(
        name="chaos-replica-kill",
        sources=(_source(seed, nodes_scale),),
        phases=(
            Phase("pre", PoissonArrivals(rate), pre),
            Phase("outage", PoissonArrivals(rate), outage),
            Phase("post", PoissonArrivals(rate), post),
        ),
        seed=seed,
        description="steady load with a replica down for the middle phase",
    )
    events = (
        FaultEvent(pre + 0.25 * outage, "kill", replica=0),
        FaultEvent(pre + outage, "recover", replica=0),
    )
    return ChaosScenario(
        scenario=scenario,
        events=events,
        description="replica 0 dies a quarter into the outage phase; that "
        "phase's p99 is the kill-window tail",
    )


def kill_flash(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> ChaosScenario:
    """A replica dies exactly when the flash crowd hits."""
    calm = _dur(0.08, scale)
    flash = _dur(0.02, scale)
    recovery = _dur(0.08, scale)
    scenario = Scenario(
        name="chaos-kill-flash",
        sources=(_source(seed, nodes_scale),),
        phases=(
            Phase("calm", PoissonArrivals(100_000.0), calm),
            Phase("flash", PoissonArrivals(2_000_000.0), flash),
            Phase("recovery", PoissonArrivals(100_000.0), recovery),
        ),
        seed=seed,
        description="flash crowd landing on a degraded cluster",
    )
    events = (
        FaultEvent(calm, "kill", replica=0),
        FaultEvent(calm + flash, "recover", replica=0),
    ) + transient_storm(
        200.0, recovery, replica=1, seed=seed + 7, t0=calm + flash
    )
    return ChaosScenario(
        scenario=scenario,
        events=events,
        description="replica 0 dies at the flash edge; transient batch "
        "failures dog replica 1 through the recovery phase",
    )


def rolling_restart(
    *,
    scale: float = 1.0,
    seed: int = 0,
    nodes_scale: float = 1.0,
    n_replicas: int = 3,
) -> ChaosScenario:
    """Restart every replica in sequence, one per phase."""
    if n_replicas < 2:
        raise ConfigurationError(
            "a rolling restart needs at least 2 replicas"
        )
    rate = 120_000.0
    warmup = _dur(0.04, scale)
    window = _dur(0.06, scale)
    phases = [Phase("warmup", PoissonArrivals(rate), warmup)]
    events = []
    t = warmup
    for r in range(n_replicas):
        phases.append(Phase(f"restart-{r}", PoissonArrivals(rate), window))
        events.append(FaultEvent(t, "kill", replica=r))
        events.append(FaultEvent(t + 0.5 * window, "recover", replica=r))
        t += window
    phases.append(Phase("settle", PoissonArrivals(rate), _dur(0.04, scale)))
    scenario = Scenario(
        name="chaos-rolling-restart",
        sources=(_source(seed, nodes_scale),),
        phases=tuple(phases),
        seed=seed,
        description=f"kill/recover each of {n_replicas} replicas in turn",
    )
    return ChaosScenario(
        scenario=scenario,
        events=tuple(events),
        description="a rolling deploy: each restart-<r> phase loses exactly "
        "one replica for its first half",
    )


def scale_out(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> ChaosScenario:
    """Scale out under load, then drain and retire the original primary."""
    rate = 250_000.0
    loaded = _dur(0.10, scale)
    scaled = _dur(0.10, scale)
    scenario = Scenario(
        name="chaos-scale-out",
        sources=(_source(seed, nodes_scale, replicas=2),),
        phases=(
            Phase("loaded", PoissonArrivals(rate), loaded),
            Phase("scaled", PoissonArrivals(rate), scaled),
        ),
        seed=seed,
        description="heavy steady load across an elastic membership change",
    )
    events = (
        FaultEvent(loaded, "add"),
        FaultEvent(loaded + 0.5 * scaled, "retire", replica=0),
    )
    return ChaosScenario(
        scenario=scenario,
        events=events,
        description="a replica joins at the phase boundary (lazy index "
        "handoff), then replica 0 drains and retires mid-phase",
    )


def autoscale_flash(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> ChaosScenario:
    """A flash crowd, a kill at its edge, and no scripted membership help.

    The traffic and kill shape of :func:`kill_flash`, minus the transient
    storm: replica 0 dies exactly when the flash hits and recovers when it
    passes.  No ``add`` event ever fires — the schedule deliberately
    leaves the cluster short-handed so that restoring (and later
    returning) capacity is the job of a reactive autoscaler observing the
    replay.  Replayed without one, it is simply a degraded flash crowd.
    """
    calm = _dur(0.08, scale)
    flash = _dur(0.02, scale)
    recovery = _dur(0.08, scale)
    scenario = Scenario(
        name="chaos-autoscale",
        sources=(_source(seed, nodes_scale),),
        phases=(
            Phase("calm", PoissonArrivals(100_000.0), calm),
            Phase("flash", PoissonArrivals(2_000_000.0), flash),
            Phase("recovery", PoissonArrivals(100_000.0), recovery),
        ),
        seed=seed,
        description="flash crowd on a degraded cluster; capacity recovery "
        "is the autoscaler's job",
    )
    events = (
        FaultEvent(calm, "kill", replica=0),
        FaultEvent(calm + flash, "recover", replica=0),
    )
    return ChaosScenario(
        scenario=scenario,
        events=events,
        description="replica 0 dies at the flash edge; no scripted adds — "
        "a reactive controller must close the capacity gap",
    )


_Builder = Callable[..., ChaosScenario]

#: Name -> builder registry, mirroring ``SCENARIOS``.
CHAOS_SCENARIOS: Dict[str, _Builder] = {
    "chaos-replica-kill": replica_kill,
    "chaos-kill-flash": kill_flash,
    "chaos-rolling-restart": rolling_restart,
    "chaos-scale-out": scale_out,
    "chaos-autoscale": autoscale_flash,
}


def make_chaos_scenario(
    name: str, *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> ChaosScenario:
    """Build a named chaos scenario, scaled like ``make_scenario``.

    >>> chaos = make_chaos_scenario("chaos-replica-kill", scale=0.2)
    >>> [e.action for e in chaos.events]
    ['kill', 'recover']
    >>> make_chaos_scenario("chaos-nope")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown chaos scenario 'chaos-nope'; \
known: chaos-autoscale, chaos-kill-flash, chaos-replica-kill, \
chaos-rolling-restart, chaos-scale-out
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if nodes_scale <= 0:
        raise ConfigurationError("nodes_scale must be positive")
    try:
        builder = CHAOS_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; known: {known}"
        ) from None
    return builder(scale=scale, seed=seed, nodes_scale=nodes_scale)


def replay_chaos(
    chaos: ChaosScenario,
    *,
    config: Optional[ClusterConfig] = None,
    admission_window_s: float = 5e-3,
    warm: bool = True,
    check_answers: bool = False,
    observer: Optional[TraceRecorder] = None,
    retry: Optional[RetryPolicy] = None,
    controller: Optional[Controller] = None,
) -> ScenarioReport:
    """Build a fresh fault-injected cluster and replay ``chaos`` on it.

    The cluster is built from ``config`` (default: two replicas, every
    other knob at its :class:`~repro.service.ClusterConfig` default) with a
    fresh :meth:`ChaosScenario.injector`; hedging is on only when ``config``
    sets ``hedge_delay_s``.  A ``controller`` observes every admission
    block exactly as in :func:`~repro.workloads.replay.replay` — with an
    :class:`~repro.control.AutoscalePolicy` attached it may add or retire
    replicas while the schedule injects faults.  Raises
    :class:`~repro.errors.ConfigurationError` when the schedule names a
    replica the cluster (plus any earlier ``add`` events) will not have —
    failing fast beats a mid-replay :class:`~repro.errors.ServiceError`.

    >>> report = replay_chaos(
    ...     make_chaos_scenario("chaos-replica-kill", scale=0.2),
    ...     config=ClusterConfig(n_replicas=2), check_answers=True,
    ... )
    >>> report.queries_admitted == report.queries_offered > 0
    True
    """
    if config is None:
        config = ClusterConfig(n_replicas=2)
    n_replicas = config.n_replicas
    if n_replicas < chaos.min_replicas():
        adds = 0
        for event in sorted(chaos.events, key=lambda e: e.time_s):
            if event.action == "add":
                adds += 1
            elif event.replica >= n_replicas + adds:
                raise ConfigurationError(
                    f"chaos scenario {chaos.name!r} targets replica "
                    f"{event.replica} but only {n_replicas + adds} exist "
                    f"at t={event.time_s:.3f}"
                )
    cluster = ClusterService(config=config, fault_injector=chaos.injector())
    return replay(
        cluster,
        chaos.scenario,
        admission_window_s=admission_window_s,
        warm=warm,
        check_answers=check_answers,
        observer=observer,
        retry=retry,
        controller=controller,
    )
