"""Declarative reactive-autoscaling policy for the cluster front door.

An :class:`AutoscalePolicy` states *when* the replica count should move —
which windowed signals to watch, the breach thresholds that trigger
scale-out, the (lower) calm thresholds that permit scale-in, and the
cooldowns that stop the loop from flapping — without saying anything about
*how* membership changes land.  The
:class:`~repro.control.controller.Controller` owns the mechanics: a firing
policy becomes a ``ClusterService.scale_to()`` call (drain-before-retire,
live-copy safety, warm spares: a displaced copy's built index stays in its
registry until LRU evicts it — the cluster's elasticity rules), recorded as
a ``kind="membership"`` :class:`~repro.control.controller.TuningDecision`.

Three windowed signals are available, all measured over the controller's
observation window:

``"shed"``
    Fraction of offered queries rejected by admission control.
``"queue"``
    Queue-depth occupancy: cluster ``pending_count() / max_pending``
    (identically ``0.0`` on an unbounded cluster — declare a
    ``max_pending`` for this signal to bite).
``"p99"``
    Window p99 latency in seconds (``histogram_quantile`` over the
    controller's window histogram).

Hysteresis is structural: every scale-in threshold must sit strictly below
its scale-out threshold, scale-out fires when *any* selected signal
breaches, and scale-in only when *all* selected signals are calm — so the
loop never oscillates on a signal hovering at one threshold.

>>> policy = AutoscalePolicy(min_replicas=1, max_replicas=8)
>>> AutoscalePolicy.from_dict(policy.to_dict()) == policy
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar, Dict, Tuple

from ..boundary import Check, ConfigBase, count, duration
from ..errors import ServiceError

__all__ = ["AutoscalePolicy", "AUTOSCALE_SIGNALS"]

#: The windowed signals a policy may watch, in canonical order.
AUTOSCALE_SIGNALS: Tuple[str, ...] = ("shed", "queue", "p99")

#: Each signal's (scale-in, scale-out) threshold fields.
_THRESHOLDS: Dict[str, Tuple[str, str]] = {
    "shed": ("shed_in", "shed_out"),
    "queue": ("queue_in", "queue_out"),
    "p99": ("p99_in_s", "p99_out_s"),
}


def _signals(names: Any, what: str) -> Tuple[str, ...]:
    """At least one known signal, each once, as a tuple."""
    names = tuple(str(name) for name in names)
    if not names:
        raise ServiceError("a policy must watch at least one signal")
    unknown = [name for name in names if name not in AUTOSCALE_SIGNALS]
    if unknown:
        raise ServiceError(
            f"unknown autoscale signals {unknown}; "
            f"choose from {list(AUTOSCALE_SIGNALS)}"
        )
    if len(set(names)) != len(names):
        raise ServiceError("duplicate autoscale signals")
    return names


def _step(value: Any, what: str) -> int:
    """A replica step: a :func:`~repro.boundary.count` named as a scale step."""
    return count(value, f"scale steps: {what}")


@dataclass(frozen=True)
class AutoscalePolicy(ConfigBase):
    """A declarative reactive-autoscaling policy.

    ``signals`` selects which windowed measurements drive the loop (at
    least one, from :data:`AUTOSCALE_SIGNALS`).  Scale-out fires when *any*
    selected signal exceeds its ``*_out`` threshold; scale-in requires
    *every* selected signal at or below its ``*_in`` threshold.  Each
    direction has its own cooldown, measured from the most recent
    membership change in either direction.

    >>> AutoscalePolicy(max_replicas=4).signals
    ('shed', 'queue', 'p99')
    >>> AutoscalePolicy(min_replicas=5, max_replicas=2)
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: need 1 <= min_replicas <= max_replicas
    >>> AutoscalePolicy(signals=())
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: a policy must watch at least one signal
    """

    #: The replica-count rails; scale decisions never leave ``[min, max]``.
    min_replicas: int = 1
    max_replicas: int = 8
    #: Which windowed signals drive the loop (subset of
    #: :data:`AUTOSCALE_SIGNALS`, at least one).
    signals: Tuple[str, ...] = AUTOSCALE_SIGNALS
    #: Window shed-rate thresholds (fractions of offered queries).
    shed_out: float = 0.02
    shed_in: float = 0.0
    #: Queue-occupancy thresholds (``pending / max_pending`` fractions).
    queue_out: float = 0.75
    queue_in: float = 0.25
    #: Window-p99 thresholds, seconds.
    p99_out_s: float = 5e-4
    p99_in_s: float = 1e-4
    #: Minimum simulated seconds between membership changes, per direction.
    cooldown_out_s: float = 2e-3
    cooldown_in_s: float = 10e-3
    #: Replicas added / retired per firing decision.
    step_out: int = 1
    step_in: int = 1

    CHECKS: ClassVar[Dict[str, Check]] = {
        **dict.fromkeys(("min_replicas", "max_replicas"), count),
        "signals": _signals,
        **dict.fromkeys((name for pair in _THRESHOLDS.values() for name in pair),
                        duration),
        **dict.fromkeys(("cooldown_out_s", "cooldown_in_s"),
                        partial(duration, positive=True)),
        **dict.fromkeys(("step_out", "step_in"), _step),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_replicas > self.max_replicas:
            raise ServiceError("need 1 <= min_replicas <= max_replicas")
        for low, high in _THRESHOLDS.values():
            lo, hi = getattr(self, low), getattr(self, high)
            if not lo < hi:
                raise ServiceError(
                    f"hysteresis requires {low} < {high} (got {lo} >= {hi})"
                )

    def out_threshold(self, signal: str) -> float:
        """The scale-out threshold for ``signal``.

        >>> AutoscalePolicy(shed_out=0.1).out_threshold("shed")
        0.1
        """
        return getattr(self, _THRESHOLDS[signal][1])

    def in_threshold(self, signal: str) -> float:
        """The scale-in (calm) threshold for ``signal``."""
        return getattr(self, _THRESHOLDS[signal][0])
