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

from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..boundary import Check, ConfigBase, duration, optional
from ..errors import ServiceError

__all__ = ["SLO"]

#: ``None`` for every bound means "no objective" — rejected at construction.
_OBJECTIVES = ("p99_latency_s", "max_shed_rate", "min_throughput_qps")


def _tenant_weights(pairs: Any, what: str) -> Tuple[Tuple[str, float], ...]:
    """``(dataset, weight)`` pairs as a tuple of tuples; weights positive."""
    return tuple((str(name), duration(weight, "tenant weights", positive=True))
                 for name, weight in pairs)


def _fraction(value: Any, what: str) -> float:
    """A :func:`~repro.boundary.duration` of at most 1."""
    rate = duration(value, what)
    if rate > 1.0:
        raise ServiceError(f"{what} must be in [0, 1] (or None)")
    return rate


@dataclass(frozen=True)
class SLO(ConfigBase):
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

    CHECKS: ClassVar[Dict[str, Check]] = {
        **dict.fromkeys(("p99_latency_s", "min_throughput_qps"),
                        optional(partial(duration, positive=True))),
        "max_shed_rate": optional(_fraction),
        "tenant_weights": _tenant_weights,
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if (
            all(getattr(self, name) is None for name in _OBJECTIVES)
            and not self.tenant_weights
        ):
            raise ServiceError("an SLO must declare at least one objective")
        names = [name for name, _ in self.tenant_weights]
        for name in names:
            if names.count(name) > 1:
                raise ServiceError(f"duplicate tenant weight for {name!r}")

    def weight_of(self, dataset: str) -> float:
        """The declared weight for ``dataset`` (1.0 when not listed).

        >>> SLO(tenant_weights=(("a", 3.0),)).weight_of("b")
        1.0
        """
        for name, weight in self.tenant_weights:
            if name == dataset:
                return weight
        return 1.0
