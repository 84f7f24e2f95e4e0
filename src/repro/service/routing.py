"""Replica placement and load-aware query routing for the serving cluster.

A sharded serving cluster answers two distinct questions for every query:

* **placement** — which replica workers *hold* a dataset (and its cached
  index artifacts).  :class:`HashRing` answers it with consistent hashing:
  each replica owns many pseudo-random points ("virtual nodes") on a hash
  circle, and a dataset lives on the first ``count`` distinct replicas
  clockwise from its own hash.  Adding or removing a replica therefore moves
  only the datasets whose arc the change touches — every other placement is
  bit-identical, which is what keeps index caches warm through resizes;
* **routing** — which of a dataset's copies *serves* a given query or block.
  :class:`Router` is the pluggable policy: :class:`RoundRobinRouter` cycles
  copies, :class:`LeastOutstandingRouter` levels queue depths (the classic
  least-outstanding-requests balancer), and :class:`ConsistentHashRouter`
  pins each dataset to one stable copy for maximal cache affinity
  (rendezvous hashing, so the pick survives copy additions and removals).

All hashing uses :func:`stable_hash` — a keyed BLAKE2b digest, deterministic
across processes, platforms and Python versions — so placements and routes
are reproducible facts of the configuration, never of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ServiceError

__all__ = [
    "stable_hash",
    "HashRing",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "ConsistentHashRouter",
    "ROUTER_POLICIES",
    "make_router",
]


def stable_hash(key: str) -> int:
    """A deterministic 64-bit hash of ``key``, stable across runs and hosts.

    Python's builtin ``hash`` is salted per process; this one is a BLAKE2b
    digest, so ring positions and rendezvous weights are reproducible.

    >>> stable_hash("dataset") == stable_hash("dataset")
    True
    >>> 0 <= stable_hash("dataset") < 2**64
    True
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping dataset names to replica ids.

    Parameters
    ----------
    replica_ids:
        The replicas currently in the cluster (any hashable ints; the
        cluster uses ``0..n-1``).
    vnodes:
        Virtual nodes per replica.  More vnodes smooth the arc lengths (and
        hence the expected placement balance) at the cost of a larger ring;
        64 keeps the max/mean arc ratio low for small clusters.
    """

    def __init__(self, replica_ids: Sequence[int], *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ServiceError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._ids: Tuple[int, ...] = tuple(sorted(set(int(r) for r in replica_ids)))
        if not self._ids:
            raise ServiceError("a hash ring needs at least one replica")
        self._rebuild()

    def _rebuild(self) -> None:
        tokens = np.empty(len(self._ids) * self.vnodes, dtype=np.uint64)
        owners = np.empty(tokens.size, dtype=np.int64)
        pos = 0
        for replica in self._ids:
            for v in range(self.vnodes):
                tokens[pos] = stable_hash(f"replica:{replica}:vnode:{v}")
                owners[pos] = replica
                pos += 1
        order = np.argsort(tokens, kind="stable")
        self._tokens = tokens[order]
        self._owners = owners[order]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def replica_ids(self) -> Tuple[int, ...]:
        """The replicas currently on the ring, ascending.

        >>> HashRing(range(3)).replica_ids
        (0, 1, 2)
        """
        return self._ids

    def add(self, replica_id: int) -> None:
        """Add a replica; only keys landing on its arcs change placement.

        >>> ring = HashRing(range(2))
        >>> ring.add(5)
        >>> ring.replica_ids
        (0, 1, 5)
        """
        if int(replica_id) in self._ids:
            raise ServiceError(f"replica {replica_id} is already on the ring")
        self._ids = tuple(sorted(self._ids + (int(replica_id),)))
        self._rebuild()

    def remove(self, replica_id: int) -> None:
        """Remove a replica; only keys it owned change placement.

        >>> ring = HashRing(range(3))
        >>> ring.remove(1)
        >>> ring.replica_ids
        (0, 2)
        """
        if int(replica_id) not in self._ids:
            raise ServiceError(f"replica {replica_id} is not on the ring")
        if len(self._ids) == 1:
            raise ServiceError("cannot remove the last replica from the ring")
        self._ids = tuple(r for r in self._ids if r != int(replica_id))
        self._rebuild()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, key: str, count: int = 1) -> List[int]:
        """The first ``count`` distinct replicas clockwise from ``key``.

        ``count`` is capped at the number of replicas on the ring.  The
        returned order is the placement order: element 0 is the key's
        *primary* replica, the rest are where additional copies go.

        Placements are deterministic, and adding a replica only moves keys
        onto the newcomer — every other placement is untouched:

        >>> ring = HashRing(range(4))
        >>> ring.place("hot", 2) == ring.place("hot", 2)
        True
        >>> before = {k: ring.place(k)[0] for k in ("a", "b", "c", "d")}
        >>> ring.add(9)
        >>> after = {k: ring.place(k)[0] for k in before}
        >>> all(after[k] in (before[k], 9) for k in before)
        True
        """
        if count < 1:
            raise ServiceError("placement count must be at least 1")
        count = min(count, len(self._ids))
        start = int(np.searchsorted(self._tokens, np.uint64(stable_hash(key))))
        chosen: List[int] = []
        size = self._tokens.size
        for step in range(size):
            owner = int(self._owners[(start + step) % size])
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == count:
                    break
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"HashRing(replicas={self._ids}, vnodes={self.vnodes})"


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

    Uses rendezvous (highest-random-weight) hashing over the dataset's
    copies: the winner only changes when the winner itself is added to or
    removed from the copy set, never when an unrelated copy churns.  With a
    replication factor of 1 this is simply "the dataset's only copy"; the
    policy earns its keep on many-dataset workloads, where it maximizes
    per-replica index-cache hit rates at the price of ignoring load.

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
        winner = max(
            (int(c) for c in copies),
            key=lambda c: (stable_hash(f"route:{dataset}@{c}"), -c),
        )
        return np.full(size, winner, dtype=np.int64)


#: Router policy names accepted by :func:`make_router`.
ROUTER_POLICIES: Tuple[str, ...] = (
    RoundRobinRouter.name,
    LeastOutstandingRouter.name,
    ConsistentHashRouter.name,
)


def make_router(policy: str) -> Router:
    """A fresh router instance for a policy name (see :data:`ROUTER_POLICIES`).

    >>> make_router("least-outstanding").name
    'least-outstanding'
    >>> sorted(ROUTER_POLICIES)
    ['consistent-hash', 'least-outstanding', 'round-robin']
    """
    if policy == RoundRobinRouter.name:
        return RoundRobinRouter()
    if policy == LeastOutstandingRouter.name:
        return LeastOutstandingRouter()
    if policy == ConsistentHashRouter.name:
        return ConsistentHashRouter()
    raise ServiceError(
        f"unknown router policy {policy!r}; known policies: {ROUTER_POLICIES}"
    )
