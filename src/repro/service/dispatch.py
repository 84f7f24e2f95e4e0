"""Cost-model-driven backend dispatch for query batches.

The paper's Fig. 6 finding, restated operationally: *which device should
serve a batch depends on the batch size*.  A single query on the GPU pays a
kernel launch plus an unhidden memory-latency critical path (microseconds); a
single query on a CPU core is a handful of cache misses (a tenth of a
microsecond).  At tens of thousands of queries the GPU's bandwidth wins by
orders of magnitude.  ``bridges/hybrid.py`` hard-codes one such choice — swap
the diameter-sensitive phase for a different algorithm — as a one-off; this
module generalizes the idea into a reusable policy object.

:class:`CostModelDispatcher` prices each candidate :class:`Backend` with the
same :func:`~repro.device.context.modeled_kernel_time` roofline model that the
execution layer charges with, using the per-query kernel shape published by
the LCA layer (:data:`repro.lca.INLABEL_QUERY_COST`).  The decision is thus a
comparison of the *actual* modeled costs, not a separately-tuned threshold
that could drift out of sync with the cost model.

A dispatcher can alternatively price batches from a **measured**
:class:`~repro.backends.calibrate.CalibrationProfile` (``profile=``): the
predicted time becomes the profile's fitted launch-overhead + per-query line
for the backend, as timed on the actual host, and the dispatch crossover
becomes a *derived* quantity of the measurement.  The modeled roofline specs
remain the deterministic default — no profile, no behavior change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..device import (
    GTX980,
    XEON_X5650_SINGLE,
    DeviceSpec,
    modeled_kernel_time,
)
from ..errors import ServiceError
from ..lca import INLABEL_QUERY_COST

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..backends.calibrate import CalibrationProfile

__all__ = [
    "Backend",
    "CPU_SEQUENTIAL_BACKEND",
    "GPU_BATCH_BACKEND",
    "DEFAULT_BACKENDS",
    "make_backend",
    "known_backend_keys",
    "estimate_batch_query_time",
    "CostModelDispatcher",
    "dispatcher_for",
    "load_calibration_profile",
]


@dataclass(frozen=True)
class Backend:
    """One candidate execution backend for serving query batches.

    ``sequential`` describes how a batch on this backend is priced: one
    thread working through the queries (the single-core CPU baseline) versus
    one thread per query (the bulk-parallel GPU kernel).

    ``kernel`` optionally names the artifact variant the backend serves
    from (a key of :data:`repro.lca.artifacts.ARTIFACT_BUILDERS`); empty
    serves the Inlabel flavour ``sequential`` names.  Either way the artifact
    only answers — :meth:`CostModelDispatcher.estimate` is the price.
    """

    key: str
    label: str
    spec: DeviceSpec
    sequential: bool
    kernel: str = ""

    @property
    def variant(self) -> str:
        """The artifact variant this backend serves (and is calibrated) from."""
        return self.kernel or ("sequential" if self.sequential else "parallel")


#: Single-core CPU serving: no launch overhead to speak of, no parallelism.
CPU_SEQUENTIAL_BACKEND = Backend(
    key="cpu1", label="Single-core CPU Inlabel", spec=XEON_X5650_SINGLE,
    sequential=True,
)

#: Bulk-parallel GPU serving: one map kernel over the whole batch.
GPU_BATCH_BACKEND = Backend(
    key="gpu", label="GPU Inlabel", spec=GTX980, sequential=False,
)

#: The paper's two serving endpoints (Fig. 6's extreme curves).
DEFAULT_BACKENDS: Tuple[Backend, ...] = (CPU_SEQUENTIAL_BACKEND, GPU_BATCH_BACKEND)

#: Serving descriptors for every dispatchable backend, by key: one per price.
_BACKEND_PRESETS: Dict[str, Backend] = {
    "cpu1": CPU_SEQUENTIAL_BACKEND,
    "gpu": GPU_BATCH_BACKEND,
    "smallbatch": Backend(
        key="smallbatch", label="Tuned small-batch Inlabel",
        spec=XEON_X5650_SINGLE, sequential=True, kernel="smallbatch",
    ),
}


def known_backend_keys() -> Tuple[str, ...]:
    """Every backend key :func:`make_backend` resolves, sorted."""
    return tuple(sorted(_BACKEND_PRESETS))


def make_backend(key: str) -> Backend:
    """The serving :class:`Backend` descriptor for ``key``.

    Resolves the paper's two endpoints (``"cpu1"``, ``"gpu"``) and the
    ``"smallbatch"`` price; configs name backends through this table.
    """
    backend = _BACKEND_PRESETS.get(key)
    if backend is None:
        raise ServiceError(
            f"unknown backend key {key!r}; known: {list(known_backend_keys())}"
        )
    return backend


def estimate_batch_query_time(
    backend: Backend, batch_size: int, *,
    profile: Optional["CalibrationProfile"] = None,
) -> float:
    """Predicted time for ``backend`` to answer one batch of ``batch_size`` queries.

    With no ``profile`` (the deterministic default) this mirrors exactly the
    kernel shapes the two execution flavours charge: a sequential backend
    runs one thread over all queries reading the node tables
    (:meth:`ExecutionContext.sequential`), a parallel backend launches one
    thread per query and also writes the answer array.

    With a measured ``profile`` the prediction is the backend's fitted
    launch-overhead + per-query cost line instead; pricing a batch outside
    the profile's calibrated range raises a typed
    :class:`~repro.errors.DeviceError` rather than extrapolating.
    """
    if batch_size < 1:
        raise ServiceError("batch_size must be at least 1")
    if profile is not None:
        return profile.predict(backend.key, batch_size)
    cost = INLABEL_QUERY_COST
    q = float(batch_size)
    if backend.sequential:
        return modeled_kernel_time(
            backend.spec, threads=1, ops=cost.ops * q,
            bytes_read=cost.bytes_read * q, bytes_written=0.0,
            launches=1, random_access=True,
        )
    return modeled_kernel_time(
        backend.spec, threads=batch_size, ops=cost.ops * q,
        bytes_read=cost.bytes_read * q, bytes_written=cost.bytes_written * q,
        launches=1, random_access=True,
    )


class CostModelDispatcher:
    """Chooses the cheapest backend for each batch size under the cost model.

    The dispatcher is also the one price of a batch: the service books
    :meth:`estimate` for every launch, so "dispatch estimate ≡ booked charge"
    holds by construction.  ``backends`` and ``profile`` are fixed at
    construction (read-only properties) — swapping a profile means building a
    new dispatcher — which is what lets both the choice and the estimate be
    memoized for good.  Ties go to the earlier backend in ``backends`` (by
    convention the CPU, i.e. "don't occupy the accelerator unless it actually
    helps").
    """

    def __init__(self, backends: Sequence[Backend] = DEFAULT_BACKENDS, *,
                 profile: Optional["CalibrationProfile"] = None) -> None:
        if not backends:
            raise ServiceError("dispatcher needs at least one backend")
        keys = [b.key for b in backends]
        if len(set(keys)) != len(keys):
            raise ServiceError(f"backend keys must be unique, got {keys}")
        self._backends: Tuple[Backend, ...] = tuple(backends)
        self._profile = profile
        if profile is not None:
            # Fail at construction, not mid-serve, if a backend was never
            # calibrated (and pin down the usable batch-size window).
            profile.batch_range(keys)
        # Realized batch sizes repeat heavily, so a flush's decision with its
        # price is one dict probe.
        self._choices: Dict[int, Tuple[Backend, float]] = {}
        self._estimates: Dict[Tuple[str, int], float] = {}

    @property
    def backends(self) -> Tuple[Backend, ...]:
        """The candidate backends, in tie-break order."""
        return self._backends

    @property
    def profile(self) -> Optional["CalibrationProfile"]:
        """Measured calibration profile; ``None`` is the modeled pricing."""
        return self._profile

    def estimate(self, backend: Backend, batch_size: int) -> float:
        """Predicted — and booked — serving time of one batch on ``backend``."""
        priced = (backend.key, batch_size)
        estimate = self._estimates.get(priced)
        if estimate is None:
            estimate = estimate_batch_query_time(
                backend, batch_size, profile=self._profile
            )
            self._estimates[priced] = estimate
        return estimate

    def choose(self, batch_size: int) -> Backend:
        """The backend with the smallest modeled time (ties: earliest listed)."""
        return self.choose_with_estimate(batch_size)[0]

    def choose_with_estimate(self, batch_size: int) -> Tuple[Backend, float]:
        """:meth:`choose` plus the winner's :meth:`estimate`."""
        choice = self._choices.get(batch_size)
        if choice is None:
            choice = self._choices[batch_size] = min(
                ((b, self.estimate(b, batch_size)) for b in self._backends),
                key=lambda pair: pair[1])
        return choice

    def crossover_batch_size(self, *, max_batch: int = 1 << 24) -> Optional[int]:
        """Smallest batch size whose choice differs from the batch-size-1 choice.

        Found by doubling then bisecting, assuming the decision flips at most
        once over the scanned range — true for launch-overhead-vs-bandwidth
        trade-offs like CPU/GPU serving, and for fitted
        overhead-plus-slope calibration lines by construction.  Returns
        ``None`` when the choice never changes (e.g. a single-backend
        dispatcher).  Under a measured profile the scan is confined to the
        batch-size window every backend is calibrated over, making the
        crossover a quantity *derived* from the measurement.
        """
        start = 1
        if self.profile is not None:
            lo_cal, hi_cal = self.profile.batch_range(
                [b.key for b in self.backends]
            )
            start = max(start, lo_cal)
            max_batch = min(max_batch, hi_cal)
            if max_batch < start:
                return None
        base = self.choose(start)
        hi = start
        while self.choose(hi) == base:
            if hi >= max_batch:
                return None
            hi = min(hi * 2, max_batch)
        lo = max(hi // 2, start)  # choose(lo) == base, choose(hi) != base
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.choose(mid) == base:
                lo = mid
            else:
                hi = mid
        return hi

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"CostModelDispatcher(backends={[b.key for b in self.backends]})"


def load_calibration_profile(path: str) -> "CalibrationProfile":
    """Read a measured :class:`CalibrationProfile` from a JSON file.

    Imported lazily so that the (large) backend package only loads when a
    config actually opts into measured dispatch.
    """
    from ..backends.calibrate import CalibrationProfile

    return CalibrationProfile.load(path)


def dispatcher_for(
    backend_keys: Optional[Sequence[str]],
    calibration_path: Optional[str] = None,
    *,
    profile: Optional["CalibrationProfile"] = None,
) -> CostModelDispatcher:
    """Build the dispatcher a config's backend fields describe.

    ``backend_keys`` name backends through :func:`make_backend` (``None``
    keeps the modeled CPU/GPU defaults); ``calibration_path`` points at a
    saved profile JSON (``profile`` passes one already loaded — at most one
    of the two).  This is the single seam :class:`~repro.service.service.
    LCAQueryService` and the cluster use to turn
    :class:`~repro.service.config.ServiceConfig` knobs into a dispatcher.
    """
    if calibration_path is not None and profile is not None:
        raise ServiceError(
            "pass either calibration_path or a preloaded profile, not both"
        )
    if calibration_path is not None:
        profile = load_calibration_profile(calibration_path)
    backends = (DEFAULT_BACKENDS if backend_keys is None
                else tuple(make_backend(key) for key in backend_keys))
    return CostModelDispatcher(backends, profile=profile)
