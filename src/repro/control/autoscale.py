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
>>> AutoscalePolicy.from_json(policy.to_json()) == policy
True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..errors import ServiceError

__all__ = ["AutoscalePolicy", "AUTOSCALE_SIGNALS"]

#: The windowed signals a policy may watch, in canonical order.
AUTOSCALE_SIGNALS: Tuple[str, ...] = ("shed", "queue", "p99")


@dataclass(frozen=True)
class AutoscalePolicy:
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

    def __post_init__(self) -> None:
        if not 1 <= int(self.min_replicas) <= int(self.max_replicas):
            raise ServiceError("need 1 <= min_replicas <= max_replicas")
        # Normalize the JSON round-trip list shape back to a tuple.
        names = tuple(str(name) for name in self.signals)
        object.__setattr__(self, "signals", names)
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
        for low, high in (
            ("shed_in", "shed_out"),
            ("queue_in", "queue_out"),
            ("p99_in_s", "p99_out_s"),
        ):
            lo, hi = float(getattr(self, low)), float(getattr(self, high))
            if lo < 0:
                raise ServiceError(f"{low} must be non-negative")
            if not lo < hi:
                raise ServiceError(
                    f"hysteresis requires {low} < {high} "
                    f"(got {lo} >= {hi})"
                )
        if float(self.cooldown_out_s) <= 0 or float(self.cooldown_in_s) <= 0:
            raise ServiceError("cooldowns must be positive")
        if int(self.step_out) < 1 or int(self.step_in) < 1:
            raise ServiceError("scale steps must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        """The policy as a plain dict (JSON-safe; bench-manifest shape)."""
        out = dataclasses.asdict(self)
        out["signals"] = list(self.signals)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AutoscalePolicy":
        """Rebuild a policy from :meth:`to_dict` output.

        >>> AutoscalePolicy.from_dict({"max_replicas": 6}).max_replicas
        6
        """
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ServiceError(
                f"unknown AutoscalePolicy fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "signals" in kwargs:
            kwargs["signals"] = tuple(str(s) for s in kwargs["signals"])
        return cls(**kwargs)

    def to_json(self) -> str:
        """The policy as a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AutoscalePolicy":
        """Rebuild a policy from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ServiceError(
                f"AutoscalePolicy JSON must be an object, "
                f"got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def out_threshold(self, signal: str) -> float:
        """The scale-out threshold for ``signal``.

        >>> AutoscalePolicy(shed_out=0.1).out_threshold("shed")
        0.1
        """
        return float(
            {
                "shed": self.shed_out,
                "queue": self.queue_out,
                "p99": self.p99_out_s,
            }[signal]
        )

    def in_threshold(self, signal: str) -> float:
        """The scale-in (calm) threshold for ``signal``."""
        return float(
            {
                "shed": self.shed_in,
                "queue": self.queue_in,
                "p99": self.p99_in_s,
            }[signal]
        )
