"""Declarative scenario specs: dataset mix × arrival profile × duration × seed.

A :class:`Scenario` is a complete, self-contained description of a traffic
experiment: which trees exist (:class:`TrafficSource` — size, share of the
traffic, key distribution, replication), what the arrival process looks like
over time (:class:`Phase` — one arrival process per named phase, played back
to back), and one seed that makes the whole thing reproducible.  The
:func:`~repro.workloads.replay.replay` harness turns a scenario plus any
service or cluster into a :class:`~repro.workloads.replay.ScenarioReport`.

The module also ships a small library of named scenarios —
:data:`SCENARIOS` / :func:`make_scenario` — that the scenario suite, the
``scenarios`` benchmark suite and the docs all share:

``steady``
    One uniformly hit tree at a constant deterministic rate; the degenerate
    case that reproduces the legacy ``offered_load_sweep`` numbers.
``diurnal``
    A raised-cosine day/night cycle (inhomogeneous Poisson): the scheduler
    sees everything from trickle to rush hour in one run.
``flash-crowd``
    Calm Poisson traffic, then a flash phase at ~50× the rate, then
    recovery — the scenario that must push a bounded cluster into
    :class:`~repro.errors.Overloaded` shedding.
``skewed-hotspot``
    Two repeated-query streams (a Zipf-ranked request pool and a flat hot
    query set) under steady Poisson load: stresses answer-cache behaviour,
    cache affinity and load imbalance.
``multi-tenant``
    Three tenants of very different sizes and key shapes sharing one
    cluster, with a bursty (Markov-modulated) second phase.

All named scenarios take a ``scale`` knob that stretches or shrinks phase
durations (query volume scales with it; rates — and therefore the overload
behaviour — do not change) and a ``nodes_scale`` knob that multiplies every
source's tree size (catalog scale: 1.0 keeps the library's test-friendly
defaults; at production catalog sizes the query kernel's node-table gathers
pay real memory-hierarchy costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    InhomogeneousPoissonArrivals,
    MarkovModulatedArrivals,
    PoissonArrivals,
    diurnal_intensity,
)
from .keys import (
    HotspotKeys,
    KeyDistribution,
    QueryPoolKeys,
    UniformKeys,
    ZipfKeys,
)

__all__ = [
    "TrafficSource",
    "Phase",
    "Scenario",
    "SCENARIOS",
    "make_scenario",
]

#: Phase durations are floored here so a tiny ``scale`` still leaves every
#: phase long enough to contain several admission windows.
_MIN_PHASE_S = 0.02


@dataclass(frozen=True)
class TrafficSource:
    """One dataset in a scenario's mix, with its share of the traffic.

    Parameters
    ----------
    dataset:
        Name the tree is registered (and queried) under.
    nodes:
        Tree size; the replay harness generates a random attachment tree of
        this size with ``tree_seed``.
    weight:
        Relative share of arrivals routed to this dataset (normalized over
        the scenario's sources).
    keys:
        Key distribution queries against this dataset are drawn from.
    tree_seed:
        Seed for the tree generator.
    key_seed:
        Seed for this source's key stream; ``None`` derives one from the
        scenario seed and the source's position.
    replicas:
        Replica count when the target is a cluster (clamped to the cluster
        size); 0 means "replicate onto every worker".  Ignored for a
        single-node service.
    """

    dataset: str
    nodes: int
    weight: float = 1.0
    keys: KeyDistribution = field(default_factory=UniformKeys)
    tree_seed: int = 0
    key_seed: Optional[int] = None
    replicas: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a traffic source needs at least one node")
        if self.weight <= 0:
            raise ConfigurationError("source weights must be positive")
        if self.replicas < 0:
            raise ConfigurationError("replicas must be non-negative")


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of a scenario with a single arrival process."""

    name: str
    arrivals: ArrivalProcess
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("phase duration must be positive")


@dataclass(frozen=True)
class Scenario:
    """A reproducible traffic experiment: sources × phases × seed.

    ``mix_stride`` controls how dataset assignment is drawn for multi-source
    scenarios: arrivals are assigned in runs of this many consecutive
    queries (sessions/bursts, the realistic shape), which also keeps the
    replay harness's column blocks large.  1 gives iid per-query assignment.

    >>> from repro.workloads import DeterministicArrivals, Scenario, \\
    ...     TrafficSource, Phase
    >>> s = Scenario(
    ...     name="tiny",
    ...     sources=(TrafficSource("t", nodes=64),),
    ...     phases=(Phase("all", DeterministicArrivals(1000.0), 0.05),),
    ... )
    >>> s.total_duration_s
    0.05
    >>> round(s.expected_queries())
    50
    """

    name: str
    sources: Tuple[TrafficSource, ...]
    phases: Tuple[Phase, ...]
    seed: int = 0
    mix_stride: int = 64
    description: str = ""

    def __post_init__(self) -> None:
        if not self.sources:
            raise ConfigurationError("a scenario needs at least one source")
        if not self.phases:
            raise ConfigurationError("a scenario needs at least one phase")
        names = [s.dataset for s in self.sources]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate source datasets: {names}")
        if self.mix_stride < 1:
            raise ConfigurationError("mix_stride must be at least 1")

    @property
    def total_duration_s(self) -> float:
        """Summed duration of every phase."""
        return sum(p.duration_s for p in self.phases)

    def expected_queries(self) -> float:
        """Expected arrival count over the whole scenario."""
        return sum(p.arrivals.expected_count(p.duration_s) for p in self.phases)


def _dur(seconds: float, scale: float) -> float:
    return max(_MIN_PHASE_S, seconds * scale)


def _nodes(base: int, nodes_scale: float) -> int:
    if nodes_scale <= 0:
        raise ConfigurationError("nodes_scale must be positive")
    return max(64, int(base * nodes_scale))


def steady(*, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0) -> Scenario:
    """One uniform tree at a constant deterministic rate (the legacy load).

    Deliberately identical in spirit — and, seeded carefully, identical bit
    for bit — to the stream :func:`offered_load_sweep` has always used:
    uniform keys from ``seed + 1`` over a tree from ``seed``, arrivals at a
    flat 200k q/s.  Nothing here should ever shed.
    """
    return Scenario(
        name="steady",
        description="constant-rate uniform traffic on one tree",
        sources=(
            TrafficSource(
                "steady",
                nodes=_nodes(16_384, nodes_scale),
                tree_seed=seed,
                key_seed=seed + 1,
            ),
        ),
        phases=(
            Phase("steady", DeterministicArrivals(200_000.0), _dur(0.25, scale)),
        ),
        seed=seed,
    )


def diurnal(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> Scenario:
    """A day/night cycle: raised-cosine intensity from 40k to 280k q/s."""
    duration = _dur(0.25, scale)
    intensity = diurnal_intensity(40_000.0, 280_000.0, period_s=duration)
    return Scenario(
        name="diurnal",
        description="sinusoidal day/night load (inhomogeneous Poisson)",
        sources=(
            TrafficSource("diurnal", nodes=_nodes(16_384, nodes_scale), tree_seed=seed),
        ),
        phases=(
            Phase(
                "cycle",
                InhomogeneousPoissonArrivals(intensity, peak_qps=280_000.0),
                duration,
            ),
        ),
        seed=seed,
    )


def flash_crowd(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> Scenario:
    """Calm traffic, a ~50× flash, then recovery.

    The flash phase offers load far beyond any bounded queue a sane
    operator would configure, so on a cluster with ``max_pending`` set this
    scenario *must* shed — the benchmark asserts it does (and that
    ``steady`` does not).
    """
    calm = PoissonArrivals(100_000.0)
    flash = PoissonArrivals(5_000_000.0)
    return Scenario(
        name="flash-crowd",
        description="calm Poisson load with a 50x flash spike",
        sources=(
            TrafficSource("flash", nodes=_nodes(16_384, nodes_scale), tree_seed=seed),
        ),
        phases=(
            Phase("calm", calm, _dur(0.08, scale)),
            Phase("flash", flash, _dur(0.02, scale)),
            Phase("recovery", calm, _dur(0.08, scale)),
        ),
        seed=seed,
    )


def skewed_hotspot(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> Scenario:
    """Two skewed repeated-query streams under steady Poisson load.

    Both sources draw from :class:`QueryPoolKeys` — finite pools of query
    *pairs* revisited over and over — because pair-level repetition is the
    quantity skew-aware serving (intra-batch dedup, the answer cache, any
    memoizing layer) actually sees.  Node-level Zipf draws ``x`` and ``y``
    independently and therefore almost never repeats a whole pair over a
    non-toy tree, which would contradict the hotspot regime this scenario
    exists to model ("the same queries recomputed thousands of times per
    second").  The ``zipfy`` source is a popularity-ranked request stream
    (Zipf over pool ranks, heavy tail of rarely-repeated queries); the
    ``hotspot`` source is a flat hot set of queries hammered uniformly.
    Traffic arrives in sessions of 32768 consecutive same-dataset queries
    (``mix_stride``), the bursty shape hot replayed/mirrored traffic has in
    practice; replay admission windows cut these into front-door-sized
    blocks, so queue-bound targets still observe admission every tick.
    """
    return Scenario(
        name="skewed-hotspot",
        description="Zipf-ranked + hot-set repeated-query pools, two trees",
        sources=(
            TrafficSource(
                "zipfy",
                nodes=_nodes(32_768, nodes_scale),
                weight=0.6,
                keys=QueryPoolKeys(
                    pool_fraction=1.0 / 128.0, alpha=1.3, pool_seed=seed + 11
                ),
                tree_seed=seed,
            ),
            TrafficSource(
                "hotspot",
                nodes=_nodes(8_192, nodes_scale),
                weight=0.4,
                keys=QueryPoolKeys(
                    pool_fraction=1.0 / 256.0, alpha=0.0, pool_seed=seed + 12
                ),
                tree_seed=seed + 1,
            ),
        ),
        phases=(Phase("steady", PoissonArrivals(150_000.0), _dur(0.25, scale)),),
        seed=seed,
        mix_stride=32768,
    )


def multi_tenant(
    *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> Scenario:
    """Three very different tenants sharing a cluster, then a bursty phase.

    A large uniformly hit tenant, a mid-size Zipf tenant and a small
    hot-set tenant split the traffic 5:3:2; the second phase swaps the
    smooth Poisson arrivals for a Markov-modulated on/off process, so the
    routers see both steady imbalance and correlated bursts.
    """
    burst = MarkovModulatedArrivals(
        on_qps=600_000.0, mean_on_s=0.004, mean_off_s=0.008, off_qps=50_000.0
    )
    return Scenario(
        name="multi-tenant",
        description="three tenants (uniform/Zipf/hot-set) + a bursty phase",
        sources=(
            TrafficSource(
                "tenant-large",
                nodes=_nodes(65_536, nodes_scale),
                weight=0.5,
                tree_seed=seed,
            ),
            TrafficSource(
                "tenant-medium",
                nodes=_nodes(16_384, nodes_scale),
                weight=0.3,
                keys=ZipfKeys(alpha=1.1),
                tree_seed=seed + 1,
                replicas=2,
            ),
            TrafficSource(
                "tenant-small",
                nodes=_nodes(4_096, nodes_scale),
                weight=0.2,
                keys=HotspotKeys(),
                tree_seed=seed + 2,
                replicas=1,
            ),
        ),
        phases=(
            Phase("steady", PoissonArrivals(180_000.0), _dur(0.12, scale)),
            Phase("bursty", burst, _dur(0.12, scale)),
        ),
        seed=seed,
    )


#: Named scenario builders, keyed by scenario name.
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "steady": steady,
    "diurnal": diurnal,
    "flash-crowd": flash_crowd,
    "skewed-hotspot": skewed_hotspot,
    "multi-tenant": multi_tenant,
}


def make_scenario(
    name: str, *, scale: float = 1.0, seed: int = 0, nodes_scale: float = 1.0
) -> Scenario:
    """Build a named scenario (see :data:`SCENARIOS` for the library).

    ``scale`` stretches phase durations (traffic volume); ``nodes_scale``
    multiplies every source's tree size (catalog scale).

    >>> make_scenario("steady").name
    'steady'
    >>> sorted(SCENARIOS)
    ['diurnal', 'flash-crowd', 'multi-tenant', 'skewed-hotspot', 'steady']
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known scenarios: {sorted(SCENARIOS)}"
        ) from None
    return builder(scale=scale, seed=seed, nodes_scale=nodes_scale)
