"""Opt-in multiprocess worker-pool backend ("a device made of processes").

:class:`ProcessPoolBackend` executes query batches across a small pool of
persistent worker processes.  The data plane is shared memory, laid out as
columnar blocks — one anonymous shared mapping per column (``xs``, ``ys``,
``answers``), allocated once per compiled kernel:

* the parent stages a batch by writing the query columns into the shared
  blocks (no serialization of array payloads, ever);
* each worker receives only a ``(lo, hi)`` shard descriptor over its pipe,
  computes answers for its rows with the vectorized kernel, and writes them
  into its slice of the answer column;
* the parent reads the assembled answer column back after all shards ack.

Workers are forked, so the compiled Inlabel tables are inherited
copy-on-write — compilation happens once, in one process, and is never
re-run or pickled.  Because :func:`~repro.lca.inlabel._query_inlabel` is
elementwise, sharding any batch across workers is bit-identical to answering
it in one piece.

The backend is **opt-in**: it is registered but never part of the default
backend set, and the single-process paths remain first-class (the reference
container has one core, where a pool can only lose).  Batches above the
block size and non-1-D inputs fall back to the in-process vectorized kernel,
so the backend is correct at any size.

Compiled pool kernels own real OS resources (processes, mappings).  They are
context managers; call :meth:`_PoolCompiledKernel.close` (or use ``with``)
when done — garbage collection also closes them, best-effort.
"""

from __future__ import annotations

import mmap
import multiprocessing
import traceback
from typing import List, Optional

import numpy as np

from ..device import ExecutionContext
from ..errors import InvalidQueryError, ServiceError
from ..graphs.trees import query_bounds_mask
from ..lca.inlabel import (
    INLABEL_QUERY_COST,
    InlabelLCA,
    InlabelStructure,
    _query_inlabel,
)
from .base import BackendCapabilities, CompiledKernel, KernelBackend

__all__ = [
    "ProcessPoolBackend",
    "POOL_BACKEND_KEY",
    "DEFAULT_POOL_WORKERS",
    "DEFAULT_POOL_MAX_BATCH",
]

POOL_BACKEND_KEY = "pool"
DEFAULT_POOL_WORKERS = 2
#: Rows per shared columnar block; batches above this fall back in-process.
DEFAULT_POOL_MAX_BATCH = 4096


def _pool_worker(
    conn: "multiprocessing.connection.Connection",
    structure: InlabelStructure,
    xs_col: np.ndarray,
    ys_col: np.ndarray,
    out_col: np.ndarray,
) -> None:
    """Worker loop: answer ``(lo, hi)`` shards until the ``None`` sentinel.

    All arrays arrive through fork inheritance — the tables copy-on-write,
    the columns as views of the shared mappings — so the loop only ever
    moves shard descriptors and acks over the pipe.
    """
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            lo, hi = msg
            try:
                out_col[lo:hi] = _query_inlabel(
                    structure, xs_col[lo:hi], ys_col[lo:hi]
                )
                conn.send(("ok", hi - lo))
            except Exception:  # pragma: no cover - defensive; parent validates
                conn.send(("err", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class _PoolCompiledKernel(CompiledKernel):
    """A compiled Inlabel kernel backed by a pool of forked workers."""

    def __init__(
        self,
        key: str,
        structure: InlabelStructure,
        *,
        n_workers: int,
        max_batch: int,
    ) -> None:
        self.backend_key = key
        self.structure = structure
        self.max_batch = int(max_batch)
        self._closed = False
        nbytes = 8 * self.max_batch
        self._blocks = [mmap.mmap(-1, nbytes) for _ in range(3)]
        self._xs_col: Optional[np.ndarray] = np.frombuffer(
            self._blocks[0], dtype=np.int64)
        self._ys_col: Optional[np.ndarray] = np.frombuffer(
            self._blocks[1], dtype=np.int64)
        self._out_col: Optional[np.ndarray] = np.frombuffer(
            self._blocks[2], dtype=np.int64)
        ctx = multiprocessing.get_context("fork")
        self._workers: List[multiprocessing.process.BaseProcess] = []
        self._conns: List["multiprocessing.connection.Connection"] = []
        try:
            for _ in range(int(n_workers)):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(child_conn, structure, self._xs_col, self._ys_col,
                          self._out_col),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.close()
            raise

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        return self.structure.n

    @property
    def n_workers(self) -> int:
        """Number of live worker processes."""
        return len(self._workers)

    def _execute(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if xs.shape != ys.shape:
            raise InvalidQueryError("query arrays must have the same shape")
        if xs.size == 0:
            return np.empty(0, dtype=np.int64)
        m = int(xs.size)
        if self._closed or xs.ndim != 1 or m > self.max_batch:
            # Closed pools and oversized batches still answer correctly.
            return _query_inlabel(self.structure, xs, ys)
        # Validate in the parent so shards can never fail in a worker.
        if query_bounds_mask(xs, ys, self.structure.n).any():
            raise InvalidQueryError("query nodes out of range")
        assert self._xs_col is not None
        assert self._ys_col is not None
        assert self._out_col is not None
        self._xs_col[:m] = xs
        self._ys_col[:m] = ys
        step = -(-m // len(self._conns))  # ceil division
        active = []
        lo = 0
        for conn in self._conns:
            hi = min(lo + step, m)
            if lo < hi:
                conn.send((lo, hi))
                active.append(conn)
            lo = hi
        for conn in active:
            tag, payload = conn.recv()
            if tag != "ok":  # pragma: no cover - defensive; parent validates
                raise ServiceError(f"pool worker failed:\n{payload}")
        return self._out_col[:m].copy()

    def _charge(self, ctx: ExecutionContext, batch_size: int) -> None:
        # Modeled as one parallel batch kernel, same shape as the vectorized
        # path — the pool changes where the work runs, not what it is.
        with ctx.phase("queries"):
            ctx.kernel(
                "pool_inlabel_query_batch",
                threads=batch_size,
                ops=INLABEL_QUERY_COST.ops * batch_size,
                bytes_read=INLABEL_QUERY_COST.bytes_read * batch_size,
                bytes_written=INLABEL_QUERY_COST.bytes_written * batch_size,
                launches=1,
                random_access=True,
            )

    def close(self) -> None:
        """Shut down the workers and release the shared blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._workers:
            proc.join(timeout=5)
        for proc in self._workers:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._workers = []
        # Drop the views before closing the mappings they reference.
        self._xs_col = self._ys_col = self._out_col = None
        for block in self._blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - a view escaped
                pass
        self._blocks = []

    def __enter__(self) -> "_PoolCompiledKernel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class ProcessPoolBackend(KernelBackend):
    """Worker-pool Inlabel backend over shared-memory columnar blocks."""

    key = POOL_BACKEND_KEY
    label = "Process-pool Inlabel"

    def __init__(
        self,
        *,
        n_workers: int = DEFAULT_POOL_WORKERS,
        max_batch: int = DEFAULT_POOL_MAX_BATCH,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                "the pool backend needs the fork start method (compiled "
                "tables are inherited copy-on-write); not available here"
            )
        self.n_workers = int(n_workers)
        self.max_batch = int(max_batch)

    def capabilities(self) -> BackendCapabilities:
        """One launch is bounded by the shared block size."""
        return BackendCapabilities(max_batch=self.max_batch, parallel=True)

    def compile(
        self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None
    ) -> CompiledKernel:
        """Compile the tables once, then fork the workers that inherit them.

        The modeled preprocessing charge matches the parallel baseline
        (:class:`~repro.lca.InlabelLCA`) — same logical work.
        """
        artifact = InlabelLCA(parents, ctx=ctx)
        return _PoolCompiledKernel(
            self.key, artifact.structure,
            n_workers=self.n_workers, max_batch=self.max_batch,
        )
