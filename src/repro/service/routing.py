"""Replica placement and load-aware query routing for the serving cluster.

A sharded serving cluster answers two distinct questions for every query:

* **placement** — which replica workers *hold* a dataset (and its cached
  index artifacts).  :func:`rendezvous` answers it with rendezvous
  (highest-random-weight) hashing: every replica gets a pseudo-random
  weight per dataset, and the dataset lives on the ``count`` heaviest.
  Adding or removing a replica therefore moves only the datasets whose
  ranking the change touches — every other placement is bit-identical,
  which is what keeps index caches warm through resizes;
* **routing** — which of a dataset's copies *serves* a given query or block.
  :class:`Router` is the pluggable policy: :class:`RoundRobinRouter` cycles
  copies, :class:`LeastOutstandingRouter` levels queue depths (the classic
  least-outstanding-requests balancer), and :class:`ConsistentHashRouter`
  pins each dataset to one stable copy for maximal cache affinity — the
  same :func:`rendezvous` ranking over its copies, so a hash-placed dataset
  is served by its primary.

All hashing uses :func:`stable_hash` — a keyed BLAKE2b digest, deterministic
across processes, platforms and Python versions — so placements and routes
are reproducible facts of the configuration, never of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Sequence, Tuple, Type

import numpy as np

from ..errors import ServiceError

__all__ = [
    "stable_hash",
    "rendezvous",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "ConsistentHashRouter",
    "ROUTERS",
    "ROUTER_POLICIES",
    "make_router",
]


def stable_hash(key: str) -> int:
    """A deterministic 64-bit hash of ``key``, stable across runs and hosts.

    Python's builtin ``hash`` is salted per process; this one is a BLAKE2b
    digest, so rendezvous weights (placements and routes) are reproducible.

    >>> stable_hash("dataset") == stable_hash("dataset")
    True
    >>> 0 <= stable_hash("dataset") < 2**64
    True
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rendezvous(key: str, replica_ids: Iterable[int], count: int) -> Tuple[int, ...]:
    """The first ``count`` of ``replica_ids`` ranked by rendezvous weight.

    Each replica's weight for ``key`` is ``stable_hash(f"{key}@{replica}")``;
    the ranking is highest weight first, ties to the lower id, and ``count``
    is capped at the number of replicas.  Element 0 is the key's *primary*.
    A replica's weight depends on nothing but the key and its own id, so
    adding one only inserts the newcomer into each ranking and removing one
    only deletes it: every other replica keeps its relative order, and a
    placement the change does not touch is bit-identical.

    >>> rendezvous("hot", range(4), 2) == rendezvous("hot", (3, 2, 1, 0), 2)
    True
    >>> len(rendezvous("hot", range(4), 99))
    4
    >>> ranked = rendezvous("hot", range(4), 4)
    >>> rendezvous("hot", [r for r in range(4) if r != ranked[1]], 3) == (
    ...     ranked[0], ranked[2], ranked[3])
    True
    """
    ranked = sorted(
        (int(r) for r in replica_ids),
        key=lambda r: (-stable_hash(f"{key}@{r}"), r),
    )
    return tuple(ranked[:count])


class Router:
    """Policy choosing which copy of a dataset serves each query.

    Subclasses implement :meth:`route_block` (a single query is a block of
    one).  Routers see the dataset's *copies* (replica ids, in placement
    order) and the current *outstanding* queue depth of each copy's worker,
    and must be deterministic functions of those inputs plus their own
    documented state.
    """

    #: Policy name used by :func:`make_router` and in reports.
    name = "base"

    def route_block(
        self,
        dataset: str,
        copies: Sequence[int],
        outstanding: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """Replica id for each of ``size`` queries (in arrival order).

        >>> import numpy as np
        >>> router = RoundRobinRouter()
        >>> router.route_block("d", (0, 1, 2), np.zeros(3, dtype=np.int64),
        ...                    4).tolist()
        [0, 1, 2, 0]
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle a dataset's copies, one query at a time.

    The cursor is per dataset, so interleaved traffic for different datasets
    does not perturb each dataset's own rotation.  Ignores queue depths.

    >>> import numpy as np
    >>> router = RoundRobinRouter()
    >>> depths = np.zeros(3, dtype=np.int64)
    >>> router.route_block("d", (0, 1, 2), depths, 4).tolist()
    [0, 1, 2, 0]
    >>> router.route_block("d", (0, 1, 2), depths, 2).tolist()  # resumes
    [1, 2]
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor: Dict[str, int] = {}

    def route_block(
        self,
        dataset: str,
        copies: Sequence[int],
        outstanding: np.ndarray,
        size: int,
    ) -> np.ndarray:
        k = len(copies)
        start = self._cursor.get(dataset, 0) % k
        self._cursor[dataset] = (start + size) % k
        idx = (start + np.arange(size, dtype=np.int64)) % k
        return np.asarray(copies, dtype=np.int64)[idx]


class LeastOutstandingRouter(Router):
    """Send each query to the copy with the least outstanding work.

    Semantics (exactly, so tests can assert the assignment): queries are
    assigned one at a time; query ``i`` goes to the copy minimizing
    ``outstanding + assigned so far from this block``, ties broken by
    placement order.  The block form computes that greedy water-filling
    assignment in closed form — no per-query loop, no sort of the block:
    the water level comes from the ``k`` sorted queue depths, and each
    copy's "slot keys" ``outstanding + 0, +1, ...`` below it are a
    (level x copy) mask whose row-major read is the ``(key, copy)`` order.

    Queue depths are sampled once per routed block (the cluster snapshots
    them at the block's first arrival), which is how real least-outstanding
    balancers behave: they observe counters, not the future.

    >>> import numpy as np
    >>> router = LeastOutstandingRouter()
    >>> router.route_block("d", (0, 1), np.array([3, 0]), 4).tolist()
    [1, 1, 1, 0]
    """

    name = "least-outstanding"

    def route_block(
        self,
        dataset: str,
        copies: Sequence[int],
        outstanding: np.ndarray,
        size: int,
    ) -> np.ndarray:
        k = len(copies)
        depth = np.asarray(outstanding, dtype=np.int64)
        if depth.shape != (k,):
            raise ServiceError(
                f"outstanding must have one entry per copy ({k}), "
                f"got shape {depth.shape}"
            )
        # The water level: the highest key L whose slots strictly below it,
        # sum(max(0, L - depth)), fit the block.  With the m shallowest
        # copies under water that sum is m * L - (their depths' sum).
        depths = depth.tolist()
        ordered, below = sorted(depths), 0
        for m, d in enumerate(ordered, 1):
            below += d
            level = (size + below) // m
            if m == k or level <= ordered[m]:
                break
        # Each copy fills its slots below L; the rest of the block sits at
        # key L exactly, on the first copies (placement order) reaching it.
        counts = [max(0, level - d) for d in depths]
        rest = size - sum(counts)
        for j, d in enumerate(depths):
            if rest and d <= level:
                counts[j] += 1
                rest -= 1
        # Copy j holds keys depth[j] .. depth[j] + counts[j] - 1; read row by
        # row, the (key x copy) mask hands queries out in (key, placement).
        keys = np.arange(ordered[0], level + 1)[:, None]
        slots = (keys >= depth) & (keys < depth + np.array(counts))
        owners = np.broadcast_to(np.asarray(copies, dtype=np.int64), slots.shape)
        return owners[slots]


class ConsistentHashRouter(Router):
    """Pin every query for a dataset to one stable copy (cache affinity).

    The winner is the dataset's :func:`rendezvous` primary among its copies:
    it only changes when the winner itself is added to or removed from the
    copy set, never when an unrelated copy churns, and for a hash-placed
    dataset it is ``placement[0]``.  With a replication factor of 1 this is
    simply "the dataset's only copy"; the policy earns its keep on
    many-dataset workloads, where it maximizes per-replica index-cache hit
    rates at the price of ignoring load.

    >>> import numpy as np
    >>> router = ConsistentHashRouter()
    >>> block = router.route_block("d", (0, 1, 2), np.zeros(3, dtype=np.int64), 5)
    >>> bool((block == block[0]).all())     # every query pinned to one copy
    True
    """

    name = "consistent-hash"

    def route_block(
        self,
        dataset: str,
        copies: Sequence[int],
        outstanding: np.ndarray,
        size: int,
    ) -> np.ndarray:
        return np.full(size, rendezvous(dataset, copies, 1)[0], dtype=np.int64)


#: Router classes by policy name, the names :func:`make_router` accepts.
ROUTERS: Dict[str, Type[Router]] = {
    cls.name: cls
    for cls in (RoundRobinRouter, LeastOutstandingRouter, ConsistentHashRouter)
}
ROUTER_POLICIES: Tuple[str, ...] = tuple(ROUTERS)


def make_router(policy: str) -> Router:
    """A fresh router instance for a policy name (see :data:`ROUTERS`).

    >>> make_router("least-outstanding").name
    'least-outstanding'
    >>> sorted(ROUTER_POLICIES)
    ['consistent-hash', 'least-outstanding', 'round-robin']
    """
    if policy not in ROUTERS:
        raise ServiceError(
            f"unknown router policy {policy!r}; known policies: {ROUTER_POLICIES}"
        )
    return ROUTERS[policy]()
