"""The Inlabel LCA algorithm of Schieber and Vishkin (paper §3.1).

The algorithm maps every tree node to a node of a conceptual full binary tree
``B`` (identified with its inorder number) such that nodes with the same
*inlabel* form top-down paths in the tree (path-partition property) and
descendants in the tree map to descendants in ``B`` (inorder property).  With
three tables — ``inlabel``, ``ascendant`` (the ``B`` levels of the inlabel
paths above a node) and ``head`` (the shallowest node of every inlabel path)
— any LCA query is a constant number of word operations; they are stored
packed the way a query reads them (:class:`InlabelStructure`).

Preprocessing needs the preorder number, subtree size and depth of every node,
which the GPU implementation obtains with the Euler tour technique; everything
after that is a constant number of map kernels plus an ``O(log n)``-round
head-jumping pass for ``ascendant``.

:class:`InlabelLCA` is the data-parallel implementation (the paper's GPU
algorithm, and the multi-core CPU baseline on the multi-core device spec),
:class:`SequentialInlabelLCA` the single-core CPU baseline, charged as a
sequential DFS and labeling pass and one query at a time.  Both read the same
tables, so a server builds them once per tree (:func:`build_inlabel_index`)
and makes each flavour a view over them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..boundary import parent_ids, query_columns
from ..device import GTX980, ExecutionContext, KernelRecord, ensure_context
from ..errors import InvalidGraphError, InvalidQueryError
from ..euler import TreeStats, tree_statistics_from_parents
from ..graphs.trees import validate_parents
from ..primitives import elementwise

__all__ = [
    "InlabelStructure",
    "build_inlabel_structure",
    "InlabelIndex",
    "build_inlabel_index",
    "InlabelLCA",
    "SequentialInlabelLCA",
    "QueryKernelCost",
    "INLABEL_QUERY_COST",
]


def _popcount(x: np.ndarray) -> np.ndarray:
    """Elementwise number of set bits of non-negative ``int64`` values."""
    x = x - ((x >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (x * 0x0101010101010101) >> 56


@dataclass
class InlabelStructure:
    """The Schieber–Vishkin tables, packed the way a query reads them.

    ``node_word[v]`` is ``ascendant(v) << 32 | inlabel(v)``: ``v``'s inlabel
    (the 1-based inorder number of a node of ``B``) and the bit set of ``B``
    levels of the inlabel paths intersecting its root path.  ``node_key[v]``
    is ``depth(v) << 32 | v``: of two nodes on one vertical path, the smaller
    key is the ancestor.  ``head_key[l]`` is the ``node_key`` of the parent of
    path ``l``'s head (its node closest to the root); ``-1`` on unused values
    and the root's path.  Every inlabel fits in ``levels`` bits (``B`` has
    ``2^levels - 1`` nodes).  ``inlabel``, ``ascendant``, ``depth`` and
    ``head`` are derived on each read, an O(n) array apiece: for tests, never
    a query.
    """

    node_word: np.ndarray
    node_key: np.ndarray
    head_key: np.ndarray
    root: int
    levels: int

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return int(self.node_word.size)

    @property
    def inlabel(self) -> np.ndarray:
        """Inlabel number of every node."""
        return self.node_word & 0xFFFFFFFF

    @property
    def ascendant(self) -> np.ndarray:
        """Bit set of ``B`` levels of the inlabel paths above every node."""
        return self.node_word >> 32

    @property
    def depth(self) -> np.ndarray:
        """Depth of every node."""
        return self.node_key >> 32

    @property
    def head(self) -> np.ndarray:
        """Per inlabel value, its path's head node (the member of least
        ``node_key``: the shallowest); unused slots are ``-1``."""
        unused = np.iinfo(np.int64).max
        least = np.full(self.head_key.size, unused, dtype=np.int64)
        np.minimum.at(least, self.inlabel, self.node_key)
        return np.where(least == unused, -1, least & 0xFFFFFFFF)


def build_inlabel_structure(stats: TreeStats,
                            *, ctx: Optional[ExecutionContext] = None
                            ) -> InlabelStructure:
    """Compute the Inlabel tables from preorder / subtree size / depth / parent.

    All steps are bulk map kernels except the ``ascendant`` computation, which
    jumps from inlabel-path head to inlabel-path head and therefore needs at
    most ``L = O(log n)`` rounds (the number of distinct inlabels on any
    root-to-node path is at most ``L``).  A tree of ``2**31`` nodes or more
    is refused: its values would not fit the packed tables' 32-bit halves.
    ``stats`` is read, never written or kept.
    """
    ctx = ensure_context(ctx)
    n = stats.n
    if n >= 1 << 31:
        raise InvalidGraphError(f"{n} nodes do not fit the packed Inlabel tables")
    pre = stats.preorder.astype(np.int64, copy=False)
    size = stats.subtree_size.astype(np.int64, copy=False)
    parent = stats.parent.astype(np.int64, copy=False)
    root = stats.root

    # inlabel(v): the element of [pre(v), pre(v)+size(v)-1] with the most
    # trailing zeros, computed with the classical XOR trick: hi cleared below
    # bit floor(log2(lo ^ hi)) = frexp's exponent - 1, in place.
    inlabel = pre + size - 1  # hi; lo = pre - 1
    _, shift = np.frexp((pre - 1) ^ inlabel)
    shift -= 1
    inlabel >>= shift
    inlabel <<= shift
    elementwise(n, ops_per_element=6.0, bytes_per_element=32.0, ctx=ctx,
                name="inlabel_compute")

    levels = max(n, 1).bit_length()  # floor(log2(n)) + 1

    # The head table, by inlabel value: first each path head's index in
    # ``heads`` (read back as every node's ``path``), later its parent's key.
    # A head is the root or a node whose parent is on another path (the
    # root's ``parent == -1`` reads the last node: in bounds, then overruled).
    is_head = inlabel[parent] != inlabel
    is_head[root] = True
    heads = np.flatnonzero(is_head)
    num_heads = heads.size
    head_inlabel = inlabel[heads]
    head = np.full(1 << (levels + 1), -1, dtype=np.int64)
    head[head_inlabel] = np.arange(num_heads)
    elementwise(n, ops_per_element=3.0, bytes_per_element=32.0, ctx=ctx,
                name="inlabel_head_scatter")

    # ascendant: prefix-OR of inlabel level bits along root-to-node paths.
    # Each node's value only depends on the ≤ L inlabel-path heads above it,
    # so on the device one thread per node walks head-to-head inside a single
    # kernel, charged once with the total number of hops as the work.  The
    # host gets the same values by pointer doubling over the path heads alone
    # (every node of a path shares its head's value, and OR is idempotent):
    # bits[j] is the OR over heads[j] and the next 2**rounds - 1 heads above
    # it, up[j] the index of the head 2**rounds paths up; slot ``num_heads``
    # stands above the root path and absorbs every chain.
    # ``x & -x`` isolates the lowest set bit directly — the same value as
    # ``1 << trailing_zeros(x)`` without the float round-trip through frexp.
    path = head[inlabel]  # per node: the index in `heads` of its path head
    bits = np.zeros(num_heads + 1, dtype=np.int64)
    bits[:num_heads] = head_inlabel & -head_inlabel
    up = np.full(num_heads + 1, num_heads, dtype=np.int64)
    head_parent = parent[heads]
    up[:num_heads] = path[head_parent]
    up[path[root]] = num_heads  # overrules what the root's ``parent == -1`` read
    rounds = 0
    while up.min() < num_heads:
        bits |= bits[up]
        up = up[up]
        rounds += 1
        if rounds > levels + 2:  # pragma: no cover - defensive
            raise RuntimeError("ascendant computation exceeded the level bound")
    # The device walk makes one hop per inlabel path above a node's own.
    # Levels strictly increase along a root path, so each of those paths is
    # one distinct bit of the head's value next to the path's own.
    total_hops = int(np.dot(_popcount(bits[:num_heads]) - 1, np.bincount(path)))
    ctx.kernel("inlabel_ascendant_walk", threads=n, ops=2.0 * n + 4.0 * total_hops,
               bytes_read=16.0 * n + 32.0 * total_hops, bytes_written=8.0 * n,
               launches=1, random_access=True)

    # Packed in place, in the query's layout: ascendant beside inlabel, the
    # node beside its depth, and each path's head slot turned into the key of
    # the head's parent (the root's path has none).  ``depth`` is the one
    # statistic copied: the copy is packed into ``node_key``.
    bits <<= 32
    node_word = bits[path]
    node_word |= inlabel
    node_key = stats.depth.astype(np.int64)
    node_key <<= 32
    node_key |= np.arange(n)
    head[head_inlabel] = node_key[head_parent]
    head[inlabel[root]] = -1
    return InlabelStructure(node_word, node_key, head, root, levels)


@functools.lru_cache(maxsize=None)
def _ilog2_table(size: int) -> np.ndarray:
    """Read-only ``uint8`` table of ``floor(log2(max(v, 1)))`` for ``v < size``.

    One per distinct ``head_key.size`` (a power of two, so a few dozen at
    most), shared by every index of that size and reachable from none, so
    artifact sizes (and the registry's eviction order) do not see it.
    """
    table = np.zeros(size, dtype=np.uint8)
    for k in range(1, size.bit_length()):
        table[1 << k:2 << k] = k
    table.flags.writeable = False
    return table


#: Lanes per tile of :func:`_query_inlabel`.  A tile's ~14 temporaries are
#: 0.5-1 MiB each at this width, which the allocator hands back cache-warm
#: tile after tile, while the tile's ~27 NumPy launches (~25 us) are noise
#: beside ~3 ms of work.  Median ns/query of one 1,048,576-lane call on the
#: 262,144-node shallow tree, by tile width (two interleaved sweeps of 12 on
#: a 2-vCPU Xeon VM): 8,192: 61-65; 16,384: 57-59; 32,768: 55-57; 65,536:
#: 53-54; 131,072: 53-56; 262,144: 66-70; untiled: 121-132.  Flat from 65,536
#: to 131,072, so the width is the widest batch the untiled kernel already
#: ran at full speed: a batch that fits keeps its launches.  Measured, not
#: tunable.
_TILE_LANES = 1 << 16


def _query_tile(structure: InlabelStructure, xs: np.ndarray, ys: np.ndarray
                ) -> np.ndarray:
    """The Schieber–Vishkin pass over one tile of 1-D ``int64`` ids.

    One straight-line pass over both endpoints stacked as ``(2, b)``: no lane
    is branched on; a lane that needs no climb does a throwaway in-bounds
    read that the ``copyto`` overwrites.  Each endpoint gathers three words:
    its ``node_word``, one ``head_key`` and its ``node_key``.
    """
    node_word = structure.node_word
    xy = np.empty((2, xs.size), dtype=np.int64)
    xy[0] = xs
    xy[1] = ys
    # Viewed as uint64 a negative id is huge: one maximum checks both ends.
    if xy.view(np.uint64).max() >= node_word.size:
        raise InvalidQueryError("query nodes out of range")

    log2 = _ilog2_table(structure.head_key.size)
    asc = node_word[xy]
    il = asc & 0xFFFFFFFF
    asc >>= 32
    # i: highest bit where the inlabels differ; low_j: the lowest common
    # ascendant level at or above i — the B-level bit of the LCA's inlabel.
    # Equal inlabels are no special case: the lowest set bit of ascendant[v]
    # is inlabel[v]'s own level, so low_j is that level and nothing is below.
    i = log2[il[0] ^ il[1]]
    common = asc[0] & asc[1]
    common >>= i
    common <<= i
    low_j = common & -common
    # asc becomes each endpoint's ascendant levels strictly below j.  None:
    # the endpoint is on the LCA's inlabel path already.  Otherwise the
    # highest, k, is the inlabel path entered just below it, and the parent
    # of that path's head is the endpoint's lowest ancestor on the LCA's.
    low_j -= 1
    asc &= low_j
    k = log2[asc]
    il >>= k
    il |= 1
    il <<= k
    # Both ancestors lie on the LCA's inlabel path, a vertical path: the
    # smaller key is the shallower node (equal depth is the same node).
    bar = structure.head_key[il]
    np.copyto(bar, structure.node_key[xy], where=asc == 0)
    out = np.minimum(bar[0], bar[1])
    out &= 0xFFFFFFFF
    return out


def _query_inlabel(structure: InlabelStructure, xs: np.ndarray, ys: np.ndarray
                   ) -> np.ndarray:
    """Vectorized constant-time LCA queries against an Inlabel structure.

    Pure computation (no cost accounting); both execution flavours wrap this.
    The batch runs the way a GPU runs it, as tiles of :data:`_TILE_LANES`
    lanes through :func:`_query_tile`, so the working set is one tile's
    temporaries whatever the batch size; a wider batch is one call per tile
    into an output allocated once, returned only if every tile passed its
    bounds check.
    """
    xs, ys = query_columns(xs, ys)
    size = xs.size
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if size <= _TILE_LANES:
        return _query_tile(structure, xs, ys)
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, _TILE_LANES):
        hi = lo + _TILE_LANES  # slices stop at the end: the last tile is the rest
        out[lo:hi] = _query_tile(structure, xs[lo:hi], ys[lo:hi])
    return out


@dataclass(frozen=True)
class QueryKernelCost:
    """Modeled per-query kernel shape of a constant-time LCA query.

    Both execution flavours charge their query kernels from these constants,
    and :mod:`repro.service.dispatch` prices candidate backends with the very
    same numbers — so a dispatch decision is, by construction, a comparison of
    the costs the backends would actually be charged.
    """

    #: Word operations per query (a few dozen ALU ops).
    ops: float
    #: Bytes read per query (node tables hit through scattered reads).
    bytes_read: float
    #: Bytes written per query (the answer).
    bytes_written: float


#: The modeled cost of one Schieber–Vishkin Inlabel query.
INLABEL_QUERY_COST = QueryKernelCost(ops=40.0, bytes_read=112.0, bytes_written=8.0)


def _launch_query(structure: InlabelStructure, xs: np.ndarray, ys: np.ndarray,
                  ctx: Optional[ExecutionContext], *, sequential: bool
                  ) -> np.ndarray:
    """One query launch of either flavour: run the kernel, book its charge.

    ``sequential`` selects the modeled shape booked under ``"queries"``: the
    batch one query at a time on one core, or one map kernel over it.
    """
    out = _query_inlabel(structure, xs, ys)
    if ctx is not None:
        size, cost = out.size, INLABEL_QUERY_COST
        with ctx.phase("queries"):
            if sequential:
                ctx.sequential("cpu_inlabel_query_batch", ops=cost.ops * size,
                               bytes_touched=cost.bytes_read * size,
                               random_access=True)
            else:
                ctx.kernel("inlabel_query_batch", threads=size, ops=cost.ops * size,
                           bytes_read=cost.bytes_read * size,
                           bytes_written=cost.bytes_written * size, launches=1,
                           random_access=True)
    return out


@dataclass(frozen=True, eq=False)
class InlabelIndex:
    """One tree's tables, built once: each flavour is a view over them that
    books its own build charge (``from_index``).  The tree statistics they
    were built from are not kept: no query reads them."""

    structure: InlabelStructure
    #: The parallel build's kernels.  Their shapes do not depend on the
    #: device, so a replay on any spec books what a build there charges.
    kernels: Tuple[KernelRecord, ...]

    @property
    def nbytes(self) -> int:
        """What every view over the index is booked at: the packed tables,
        ``16 n + 8 head_key.size``."""
        s = self.structure
        return s.node_word.nbytes + s.node_key.nbytes + s.head_key.nbytes


def build_inlabel_index(parents: np.ndarray, *, validate: bool = False
                        ) -> InlabelIndex:
    """Build one tree's tables, recording the parallel build's kernels."""
    recorder = ExecutionContext(GTX980, trace=True)
    lca = InlabelLCA(parents, ctx=recorder, validate=validate)
    return InlabelIndex(lca.structure, tuple(recorder.records))


def charge_sequential_build(n: int, ctx: Optional[ExecutionContext],
                            name: str = "cpu_inlabel_preprocess") -> None:
    """Book the single-core build of an ``n``-node tree into ``ctx``: one DFS
    and one labeling pass, a handful of dependent pointer dereferences (30
    operations, 180 bytes) per node."""
    ctx = ensure_context(ctx)
    with ctx.phase("preprocessing"):
        ctx.sequential(name, ops=30.0 * n, bytes_touched=180.0 * n,
                       random_access=True)


def _view(cls: type, index: InlabelIndex) -> Any:
    """A ``cls`` flavour over ``index``'s tables, built and charged nothing."""
    lca = cls.__new__(cls)
    lca.structure = index.structure
    return lca


class InlabelLCA:
    """Data-parallel Inlabel LCA (the paper's GPU algorithm).

    ``parents`` is the tree as a parent array (``-1`` marks the root); ``ctx``
    is charged the preprocessing (Euler tour + labeling kernels): point it at
    :data:`repro.device.GTX980` for the GPU algorithm or
    :data:`repro.device.XEON_X5650_MULTI` for the OpenMP multi-core baseline.
    ``list_rank_method`` ranks the Euler tour (``"wei-jaja"`` by default);
    ``validate`` checks the parent array up front (an extra O(n log n) host
    pass; leave it off for large benchmark runs).
    """

    name = "Parallel Inlabel"

    def __init__(self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None,
                 list_rank_method: str = "wei-jaja", validate: bool = False) -> None:
        ctx = ensure_context(ctx)
        parents = parent_ids(parents)
        if validate:
            validate_parents(parents)
        with ctx.phase("preprocessing"):
            stats = tree_statistics_from_parents(
                parents, list_rank_method=list_rank_method, ctx=ctx
            )
            self.structure = build_inlabel_structure(stats, ctx=ctx)

    @classmethod
    def from_index(cls, index: InlabelIndex,
                   *, ctx: Optional[ExecutionContext] = None) -> "InlabelLCA":
        """A view over ``index``'s tables; ``ctx`` is charged the parallel build."""
        ctx = ensure_context(ctx)
        with ctx.phase("preprocessing"):
            for k in index.kernels:
                ctx.kernel(k.name, threads=k.threads, ops=k.ops,
                           bytes_read=k.bytes_read, bytes_written=k.bytes_written,
                           launches=k.launches, divergent=k.divergent,
                           random_access=k.random_access)
        return _view(cls, index)

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return self.structure.n

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries; one map kernel over the batch."""
        return _launch_query(self.structure, xs, ys, ctx, sequential=False)


class SequentialInlabelLCA:
    """Single-core CPU Inlabel baseline (identical answers, sequential cost).

    The preprocessing is charged as one sequential DFS over the tree (to get
    preorder, subtree sizes and depths) followed by a sequential labeling
    pass; queries are charged one at a time.  The tables are those of
    :func:`build_inlabel_index` — only the cost model differs — so the two
    flavours are bit-for-bit consistent.
    """

    name = "Sequential Inlabel"

    def __init__(self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None,
                 validate: bool = False) -> None:
        self.structure = build_inlabel_index(parents, validate=validate).structure
        charge_sequential_build(self.n, ctx)

    @classmethod
    def from_index(cls, index: InlabelIndex, *, ctx: Optional[ExecutionContext] = None
                   ) -> "SequentialInlabelLCA":
        """A view over ``index``'s tables; ``ctx`` is charged the sequential build."""
        charge_sequential_build(index.structure.n, ctx)
        return _view(cls, index)

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return self.structure.n

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries sequentially (one query at a time)."""
        return _launch_query(self.structure, xs, ys, ctx, sequential=True)
