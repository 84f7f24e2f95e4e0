"""Typed, serializable configuration objects for the serving stack.

Every knob of :class:`~repro.service.service.LCAQueryService` and
:class:`~repro.service.cluster.ClusterService` (batch policy, cache budgets,
dedup, admission limit, hedging, retries, router policy) lives on
:class:`ServiceConfig` / :class:`ClusterConfig` — ``config=`` is the only
way to set one; the constructors otherwise take live collaborators only.
The configs are frozen :class:`~repro.boundary.ConfigBase` dataclasses that

* validate and normalise eagerly through :mod:`repro.boundary` (so a bad
  config fails where it is written, not where it is used);
* derive cheaply — :meth:`ServiceConfig.derive` is ``dataclasses.replace``
  with validation, the idiom for "this run, but with a bigger batch";
* round-trip through plain dicts and JSON
  (:meth:`ServiceConfig.to_dict` / :meth:`ServiceConfig.from_json`), so a
  benchmark manifest can pin the exact configuration it measured;
* name the *safe-to-retune* subset (:attr:`ServiceConfig.TUNABLE`): the
  knobs ``apply_tuning()`` may hot-swap at a flush boundary while a replay
  is in flight.  Structural knobs (cache budgets, dedup) are deliberately
  excluded — changing them would invalidate carved-out byte budgets or
  already-issued tickets.  The cluster's replica count *is* tunable:
  it lands through a drain-before-retire membership transition
  (``ClusterService.scale_to``) rather than a hot swap, which is what
  makes reactive autoscaling answer-preserving.

Router policies are stored as string keys (the
:data:`~repro.service.routing.ROUTER_POLICIES` names), which is what makes
:class:`ClusterConfig` fully serializable.

>>> cfg = ServiceConfig(max_batch_size=256, max_wait_s=2e-4)
>>> cfg.derive(max_batch_size=512).max_batch_size
512
>>> ServiceConfig.from_json(cfg.to_json()) == cfg
True
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar, Dict, FrozenSet, Optional, Tuple

from ..boundary import Check, ConfigBase, count, duration, instant, optional
from ..errors import ServiceError
from .routing import LeastOutstandingRouter
from .scheduler import BatchPolicy

__all__ = ["ServiceConfig", "ClusterConfig"]


def _backend_keys(backends: Any, what: str) -> Tuple[str, ...]:
    """Non-empty, unique keys as a tuple (a JSON round-trip makes it a list)."""
    keys = tuple(str(key) for key in backends)
    if not keys:
        raise ServiceError(f"{what} must name at least one backend (or None)")
    if len(set(keys)) != len(keys):
        raise ServiceError(f"backend keys must be unique, got {list(keys)}")
    return keys


@dataclass(frozen=True)
class ServiceConfig(ConfigBase):
    """Everything a :class:`LCAQueryService` is configured by, in one value.

    The non-serializable collaborators (store, dispatcher, clock, observer)
    stay constructor arguments — they are live objects, not configuration.

    >>> cfg = ServiceConfig(max_batch_size=128, max_wait_s=1e-4, dedup=True)
    >>> cfg.batch_policy()
    BatchPolicy(max_batch_size=128, max_wait_s=0.0001)
    >>> sorted(ServiceConfig.TUNABLE)
    ['max_batch_size', 'max_wait_s']
    """

    #: Micro-batching knobs (see :class:`~repro.service.scheduler.BatchPolicy`).
    max_batch_size: int = 1024
    max_wait_s: float = 1e-3
    #: Index-cache byte budget (``None`` = unbounded).
    capacity_bytes: Optional[int] = None
    #: Skew-aware path: each batch's pairs are canonicalized (``x <= y``),
    #: packed and deduplicated; the kernel runs on — and the dispatcher
    #: prices — the unique pairs only.  Answers are bit-identical either way.
    dedup: bool = False
    #: Answer-cache byte budget (``None`` disables; implies ``dedup``): a
    #: bounded exact hash table, so a pair repeated *across* batches costs
    #: one probe instead of a kernel run.
    answer_cache_bytes: Optional[int] = None
    #: Salt seed for the answer cache's slot hash.
    answer_cache_seed: int = 0
    #: Pre-sizing of the ticket-indexed result tables (``None`` = grow).
    ticket_capacity: Optional[int] = None
    #: Backend keys the dispatcher prices (resolved through
    #: :func:`~repro.service.dispatch.make_backend`); ``None`` keeps the
    #: modeled CPU/GPU default pair.
    backends: Optional[Tuple[str, ...]] = None
    #: Path to a measured calibration-profile JSON
    #: (:class:`~repro.backends.calibrate.CalibrationProfile`); ``None``
    #: keeps the deterministic modeled pricing.
    calibration_path: Optional[str] = None

    TUNABLE: ClassVar[FrozenSet[str]] = frozenset(
        {"max_batch_size", "max_wait_s"}
    )
    CHECKS: ClassVar[Dict[str, Check]] = {
        **BatchPolicy.CHECKS,
        "capacity_bytes": optional(count),
        "answer_cache_bytes": optional(count),
        "ticket_capacity": optional(partial(count, least=0)),
        "backends": optional(_backend_keys),
    }

    def batch_policy(self) -> BatchPolicy:
        """The :class:`BatchPolicy` this config describes.

        >>> ServiceConfig(max_batch_size=8).batch_policy().max_batch_size
        8
        """
        return BatchPolicy(max_batch_size=self.max_batch_size,
                           max_wait_s=self.max_wait_s)


@dataclass(frozen=True)
class ClusterConfig(ConfigBase):
    """Everything a :class:`ClusterService` is configured by, in one value.

    ``router`` is a policy *name* (one of
    :data:`~repro.service.routing.ROUTER_POLICIES`, resolved through
    :func:`~repro.service.routing.make_router` at construction), not an
    instance — that is what keeps the whole config JSON-serializable.

    >>> cfg = ClusterConfig(n_replicas=4, router="round-robin",
    ...                     max_pending=8192)
    >>> ClusterConfig.from_dict(cfg.to_dict()) == cfg
    True
    >>> sorted(ClusterConfig.TUNABLE)
    ['hedge_delay_s', 'max_batch_size', 'max_pending', 'max_wait_s', 'n_replicas']
    """

    n_replicas: int = 4
    #: Micro-batching knobs applied to every replica worker's schedulers.
    max_batch_size: int = 1024
    max_wait_s: float = 1e-3
    #: Router policy name (see :data:`ROUTER_POLICIES`).
    router: str = LeastOutstandingRouter.name
    #: Cluster-wide cache byte budget, split across the workers.
    capacity_bytes: Optional[int] = None
    #: Cluster-wide bound on queued queries (``None`` = no admission control).
    max_pending: Optional[int] = None
    start_time: float = 0.0
    dedup: bool = False
    #: Cluster-wide answer-cache budget, split per replica (implies dedup).
    answer_cache_bytes: Optional[int] = None
    #: Hedged-dispatch delay: a batch queueing on its lane longer than this
    #: is re-issued to another live copy and the earlier completion wins
    #: (``None`` disables hedging).
    hedge_delay_s: Optional[float] = None
    #: Per-query cap on failover re-dispatches before ``ReplicaDown``.
    max_retries: int = 3
    #: Backend keys every worker's dispatcher prices (``None`` = defaults).
    backends: Optional[Tuple[str, ...]] = None
    #: Measured calibration-profile JSON path (``None`` = modeled pricing).
    calibration_path: Optional[str] = None

    #: ``n_replicas`` joined the tunable set with reactive autoscaling:
    #: ``apply_tuning(n_replicas=...)`` lands through ``scale_to()`` —
    #: a drain-before-retire membership transition, not a hot swap, but
    #: equally answer-preserving.
    TUNABLE: ClassVar[FrozenSet[str]] = frozenset(
        {"max_batch_size", "max_wait_s", "hedge_delay_s", "max_pending",
         "n_replicas"}
    )

    CHECKS: ClassVar[Dict[str, Check]] = {
        **BatchPolicy.CHECKS,
        "n_replicas": count,
        "capacity_bytes": optional(count),
        "max_pending": optional(count),
        "start_time": instant,
        "answer_cache_bytes": optional(count),
        "hedge_delay_s": optional(partial(duration, positive=True)),
        "max_retries": count,
        "backends": optional(_backend_keys),
    }

    def batch_policy(self) -> BatchPolicy:
        """The :class:`BatchPolicy` every worker's schedulers run under.

        >>> ClusterConfig(max_wait_s=2e-4).batch_policy().max_wait_s
        0.0002
        """
        return BatchPolicy(max_batch_size=self.max_batch_size,
                           max_wait_s=self.max_wait_s)

    def service_config(self, *, capacity_bytes: Optional[int] = None,
                       answer_cache_bytes: Optional[int] = None
                       ) -> ServiceConfig:
        """The per-worker :class:`ServiceConfig` this cluster config implies.

        The cluster carves its cluster-wide byte budgets into per-replica
        slices; callers pass the already-carved slices here.

        >>> ClusterConfig(dedup=True).service_config().dedup
        True
        """
        return ServiceConfig(
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            capacity_bytes=capacity_bytes,
            dedup=self.dedup,
            answer_cache_bytes=answer_cache_bytes,
            backends=self.backends,
            calibration_path=self.calibration_path,
        )
