"""Declarative service-level objectives for the serving stack.

An :class:`SLO` states *what* the operator wants — a tail-latency bound, a
shed-rate ceiling, a throughput floor, per-tenant priorities — without
saying anything about batch sizes or wait deadlines.  The
:class:`~repro.control.controller.Controller` owns the mapping from
objectives to knobs; keeping the spec declarative means the same SLO can
drive a single :class:`~repro.service.LCAQueryService` or a whole
:class:`~repro.service.ClusterService`, and can be serialized into a bench
manifest next to the :class:`~repro.service.config.ClusterConfig` it was
enforced against.

>>> slo = SLO(p99_latency_s=2e-4, max_shed_rate=0.01)
>>> SLO.from_json(slo.to_json()) == slo
True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..boundary import Check, duration, optional, settle
from ..errors import ServiceError

__all__ = ["SLO"]

#: ``None`` for every bound means "no objective" — rejected at construction.
_OBJECTIVES = ("p99_latency_s", "max_shed_rate", "min_throughput_qps")


@dataclass(frozen=True)
class SLO:
    """A declarative service-level objective.

    Every bound is optional; an SLO must declare at least one objective
    (a bound or tenant weights).  ``tenant_weights`` maps dataset names to
    relative priorities — higher weight means a shorter effective wait
    deadline for that tenant's lane (see
    :meth:`~repro.control.controller.Controller.observe`).

    >>> SLO(p99_latency_s=1e-4).p99_latency_s
    0.0001
    >>> SLO()
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: an SLO must declare at least one objective
    >>> SLO(p99_latency_s=1e-4,
    ...     tenant_weights=(("gold", 5.0), ("bronze", 1.0))).weight_of("gold")
    5.0
    """

    #: Modeled end-to-end p99 latency bound, seconds (``None`` = unbounded).
    p99_latency_s: Optional[float] = None
    #: Ceiling on the fraction of offered queries shed by admission control.
    max_shed_rate: Optional[float] = None
    #: Floor on delivered throughput, queries per second.
    min_throughput_qps: Optional[float] = None
    #: ``(dataset, weight)`` priority pairs; heavier tenants get shorter
    #: wait deadlines.  Stored as a tuple of pairs so the spec stays
    #: hashable and JSON-round-trippable.
    tenant_weights: Tuple[Tuple[str, float], ...] = ()

    CHECKS: ClassVar[Dict[str, Check]] = dict.fromkeys(
        ("p99_latency_s", "min_throughput_qps"),
        optional(partial(duration, positive=True)))

    def __post_init__(self) -> None:
        if (
            all(getattr(self, name) is None for name in _OBJECTIVES)
            and not self.tenant_weights
        ):
            raise ServiceError("an SLO must declare at least one objective")
        settle(self, self.CHECKS)
        if self.max_shed_rate is not None and not (
            0.0 <= float(self.max_shed_rate) <= 1.0
        ):
            raise ServiceError("max_shed_rate must be in [0, 1] (or None)")
        # Normalize list-of-lists (the JSON round-trip shape) to tuples.
        pairs = tuple(
            (str(name), float(weight)) for name, weight in self.tenant_weights
        )
        object.__setattr__(self, "tenant_weights", pairs)
        seen = set()
        for name, weight in pairs:
            if weight <= 0:
                raise ServiceError("tenant weights must be positive")
            if name in seen:
                raise ServiceError(f"duplicate tenant weight for {name!r}")
            seen.add(name)

    def weight_of(self, dataset: str) -> float:
        """The declared weight for ``dataset`` (1.0 when not listed).

        >>> SLO(tenant_weights=(("a", 3.0),)).weight_of("b")
        1.0
        """
        for name, weight in self.tenant_weights:
            if name == dataset:
                return weight
        return 1.0

    def to_dict(self) -> Dict[str, Any]:
        """The SLO as a plain dict (JSON-safe; bench-manifest shape)."""
        out = dataclasses.asdict(self)
        out["tenant_weights"] = [list(pair) for pair in self.tenant_weights]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLO":
        """Rebuild an SLO from :meth:`to_dict` output.

        >>> SLO.from_dict({"max_shed_rate": 0.05}).max_shed_rate
        0.05
        """
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ServiceError(f"unknown SLO fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "tenant_weights" in kwargs:
            kwargs["tenant_weights"] = tuple(
                (str(n), float(w)) for n, w in kwargs["tenant_weights"]
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        """The SLO as a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SLO":
        """Rebuild an SLO from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ServiceError(
                f"SLO JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)
