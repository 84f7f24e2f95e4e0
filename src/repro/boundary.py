"""The public boundary, declared once: each input is normalised here or refused.

The pipelines start from raw arrays (an unordered edge list, §2.1; a parent
array; query pairs) and the serving stack adds timestamps, tickets and
configuration knobs.  Each is declared once below; every public entry point
calls this module, and nothing else re-implements it.

The rule is *refuse, never cast*: a cast would answer ``1.7`` or ``True`` as
node ``1``, index ``[-1, 0.9, 1.2]`` as the tree ``[-1, 0, 1]`` and take
``"1"`` as the instant ``1.0``.  So an integer-id array refuses a ragged
sequence, a non-integer dtype (bool, float, object, str) and the wrong number
of dimensions — one test per array, never per element — while an empty input
of any dtype passes, for the caller's own "at least one" check.  An integer
scalar refuses ``bool``; an instant or a duration refuses ``bool``, ``str``,
NaN and ±inf (NaN would stall the scheduler, ``inf`` strand the clock).
Checks that need the data (a node below ``n``, an arrival not before the
clock, an issued ticket) stay with the data's owner.  A configuration object
is a frozen dataclass on :class:`ConfigBase`: its ``CHECKS`` name one check
per field, and the base settles them, derives copies and serializes.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from functools import partial
from typing import (
    Any, Callable, ClassVar, Dict, FrozenSet, Mapping, Optional, Tuple, Type, TypeVar,
)

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidGraphError,
    InvalidQueryError,
    NotATreeError,
    ReproError,
    ServiceError,
)


def id_array(
    error: Type[ReproError], what: str, *, scalar: bool = False
) -> Callable[..., np.ndarray]:
    """The check of one integer-id input: its error, its name and its shapes.

    The check returns the input as ``int64`` (a view when it already is);
    it must be 1-D, unless ``scalar`` (0-D is a one-element array).
    ``name`` overrides ``what`` in messages.
    """
    shape = "scalars or 1-D" if scalar else "1-D"

    def check(values: object, name: str = what) -> np.ndarray:
        try:
            arr = np.asarray(values)
        except ValueError:  # a ragged sequence
            raise error(f"{name} must be integers, got a ragged sequence") from None
        if arr.ndim != 1 and not (scalar and arr.ndim == 0):
            raise error(f"{name} must be integers, {shape}; got {arr.ndim} dimensions")
        if arr.dtype.kind not in "iu" and arr.size:
            raise error(f"{name} must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        return arr if arr.ndim else arr.reshape(1)

    return check


#: A parent array (``-1`` marks the root).
parent_ids = id_array(NotATreeError, "parents")
#: Edge endpoints, a relabeling, the marking walk's levels.
node_ids = id_array(InvalidGraphError, "node ids")
#: An index's or a front door's query columns: a 0-D scalar is one query.
query_ids = id_array(InvalidQueryError, "query node ids", scalar=True)
#: A linked list's successor array.
successor_ids = id_array(InvalidGraphError, "successors")
#: RMQ range bounds.
range_bounds = id_array(InvalidQueryError, "range bounds", scalar=True)
#: Tickets read back from a service or cluster.
ticket_ids = id_array(ServiceError, "tickets", scalar=True)
#: The replicas a cluster pins a dataset on.
replica_ids = id_array(ServiceError, "replica ids")


def query_columns(xs: object, ys: object) -> Tuple[np.ndarray, np.ndarray]:
    """An index's two query columns: :data:`query_ids` each, of one shape."""
    x_ids, y_ids = query_ids(xs), query_ids(ys)
    if x_ids.shape != y_ids.shape:
        raise InvalidQueryError("query arrays must have the same shape")
    return x_ids, y_ids


def int_scalar(value: object, error: Type[ReproError], what: str) -> int:
    """``value`` as a Python ``int``; floats, strings and ``bool`` are refused."""
    if value.__class__ is not bool:
        try:
            return operator.index(value)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def query_pair(x: object, y: object) -> Tuple[int, int]:
    """One scalar query's node ids: :func:`int_scalar` for both, in one frame."""
    if x.__class__ is not bool and y.__class__ is not bool:
        try:
            return operator.index(x), operator.index(y)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise InvalidQueryError(f"query node ids must be integers, got ({x!r}, {y!r})")


def instant(t: object, what: str = "a timestamp",
            error: Type[ReproError] = ServiceError) -> float:
    """``t`` as a finite ``float`` of seconds, or ``error``."""
    if t.__class__ is float and t - t == 0.0:  # type: ignore[operator]
        return t  # type: ignore[return-value]
    if not isinstance(t, (bool, np.bool_, str, bytes)):
        try:
            value = float(t)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(value):
                return value
    raise error(f"{what} must be a finite number, got {t!r}")


def seconds_column(values: object, what: str, size: int) -> np.ndarray:
    """``size`` instants or durations as ``float64``; integer and float dtypes
    pass, and the caller checks finiteness (admitting the clean prefix)."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ServiceError(f"{what} must be numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "iuf" and arr.size:
        raise ServiceError(f"{what} must be numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (size,):
        raise ServiceError(f"{what} must match the query arrays")
    return arr


def query_block(
    xs: object, ys: object, at: Optional[object], *, now: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A front door's column block: 1-D ``int64`` ids, ``float64`` arrivals
    (all ``now`` without ``at``), checked before any ticket is issued."""
    x_ids, y_ids = query_ids(xs), query_ids(ys)
    if x_ids.shape != y_ids.shape:
        raise ServiceError("query arrays must have the same shape")
    if at is None:
        return x_ids, y_ids, np.full(x_ids.size, now, dtype=np.float64)
    return x_ids, y_ids, seconds_column(at, "arrival timestamps", x_ids.size)


def count(value: object, what: str, *, least: int = 1,
          error: Type[ReproError] = ServiceError) -> int:
    """A configuration count: an integer of at least ``least``, else ``error``."""
    n = int_scalar(value, error, what)
    if n < least:
        raise error(f"{what} must be at least {least}")
    return n


def duration(value: object, what: str, *, positive: bool = False,
             error: Type[ReproError] = ServiceError) -> float:
    """A duration or rate: finite, non-negative or ``positive``, else ``error``."""
    seconds = instant(value, what, error)
    if seconds < 0 or (positive and seconds == 0):
        sign = "positive" if positive else "non-negative"
        raise error(f"{what} must be {sign}")
    return seconds


#: A workload's arrival rate or a fault's instant: a :func:`duration`
#: refused with :class:`~repro.errors.ConfigurationError`; and a workload's
#: :func:`count`, refused the same way.
workload_number = partial(duration, error=ConfigurationError)
workload_count = partial(count, error=ConfigurationError)


def workload_integer(value: object, what: str) -> int:
    """A schedule's integer field (a fault's replica id or count), refused
    with :class:`~repro.errors.ConfigurationError`."""
    return int_scalar(value, ConfigurationError, what)


#: A field check: ``check(value, name)`` returns the value normalised, or raises.
Check = Callable[[Any, str], Any]


def optional(check: Check) -> Check:
    """``check`` for a knob that ``None`` switches off."""
    return lambda value, what: None if value is None else check(value, what)


def settle(config: object, checks: Mapping[str, Check]) -> None:
    """Check a frozen dataclass's fields and store them normalised."""
    for name, check in checks.items():
        object.__setattr__(config, name, check(getattr(config, name), name))


C = TypeVar("C", bound="ConfigBase")


@dataclasses.dataclass(frozen=True)
class ConfigBase:
    """A frozen config: checked fields, derived copies, a dict form.

    Each subclass names a :data:`Check` per field in ``CHECKS`` (settled
    before any rule of its own in ``__post_init__``) and the fields that
    ``apply_tuning()`` may hot-swap in ``TUNABLE``.  A sequence field's check
    returns a tuple, so the lists of a JSON round-trip come back equal.

    >>> import json
    >>> from repro.service import ServiceConfig
    >>> cfg = ServiceConfig(max_batch_size=64)
    >>> ServiceConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    True
    """

    #: Field names ``apply_tuning()`` may hot-swap mid-stream (subclasses
    #: override; everything else is fixed at construction).
    TUNABLE: ClassVar[FrozenSet[str]] = frozenset()
    #: Each checked field's check (subclasses override).
    CHECKS: ClassVar[Dict[str, Check]] = {}

    def __post_init__(self) -> None:
        settle(self, self.CHECKS)

    @classmethod
    def _refuse_unknown(cls, data: Any) -> None:
        if not isinstance(data, dict):
            raise ServiceError(f"{cls.__name__} must be an object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ServiceError(f"unknown {cls.__name__} fields: {sorted(unknown)}")

    def derive(self: C, **changes: Any) -> C:
        """A copy with ``changes`` applied (``dataclasses.replace`` + checks).

        >>> from repro.service import ServiceConfig
        >>> ServiceConfig().derive(max_wait_s=5e-4).max_wait_s
        0.0005
        >>> ServiceConfig().derive(max_batch_size=0)
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: max_batch_size must be at least 1
        """
        self._refuse_unknown(changes)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """The config as a plain dict (JSON-safe; bench-manifest shape).

        >>> from repro.service import ServiceConfig
        >>> ServiceConfig(max_batch_size=64).to_dict()["max_batch_size"]
        64
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls: Type[C], data: Dict[str, Any]) -> C:
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`~repro.errors.ServiceError` — a manifest
        written by a different version should fail loudly, not half-apply.

        >>> from repro.service import ServiceConfig
        >>> ServiceConfig.from_dict({"max_batch_size": 64}).max_batch_size
        64
        >>> ServiceConfig.from_dict({"max_batch": 64})
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: unknown ServiceConfig fields: ['max_batch']
        """
        cls._refuse_unknown(data)
        return cls(**data)
