"""List ranking: Wyllie pointer jumping and Wei–JaJa splitter-based ranking.

List ranking — given a linked list, compute every element's distance from the
head — is the key primitive that turns an Euler *tour as a linked list* into
an Euler *tour as an array* (paper §2.2).  The paper implements the
GPU-optimized algorithm of Wei and JaJa [64], a randomized splitter scheme in
the Helman–JaJa family, and reports that it performs far better than classical
Wyllie pointer jumping.  Both are implemented here:

* :func:`wyllie_rank` — textbook pointer jumping, ``O(n log n)`` work,
  ``O(log n)`` rounds.
* :func:`wei_jaja_rank` — pick ``s`` splitters, walk the sublists, rank the
  (small) list of sublists, add offsets; ``O(n)`` work in expectation
  plus ``O(n/s)`` rounds.

Lists are represented by a successor array ``succ`` where ``succ[i]`` is the
index of the element after ``i`` and the last element has ``succ[last] == -1``.
Every element must be reachable from ``head``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..boundary import int_scalar, successor_ids
from ..device import ExecutionContext, ensure_context
from ..errors import InvalidGraphError

_NIL = -1
_WORD_BITS = 63  # of the int64 word a Wei–JaJa walk writes (the sign bit stays clear)
_TILE = 1 << 16  # elements per step of the in-place Wei–JaJa offset add


def _validate_list(succ: object, head: object) -> np.ndarray:
    """``succ`` after :data:`repro.boundary.successor_ids`, and ``head``, checked."""
    arr = successor_ids(succ)
    n = arr.size
    if n == 0:
        raise InvalidGraphError("cannot rank an empty list")
    head = int_scalar(head, InvalidGraphError, "head")
    if not (0 <= head < n):
        raise InvalidGraphError(f"head index {head} out of range for list of length {n}")
    if arr.min() < _NIL or arr.max() >= n:
        raise InvalidGraphError("successor indices must be in [-1, n)")
    return arr


def sequential_rank(succ: np.ndarray, head: int,
                    *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Rank a list by walking it sequentially; reference and CPU baseline.

    Returns ``rank`` with ``rank[head] == 0``; unreachable elements (which
    indicate a malformed list) raise :class:`InvalidGraphError`.
    """
    ctx = ensure_context(ctx)
    succ = _validate_list(succ, head)
    n = succ.size
    # A Python walk, charged as a sequential pointer chase: n dependent
    # random accesses.
    node = head
    r = 0
    succ_list = succ.tolist()
    rank_list = [_NIL] * n
    while node != _NIL:
        if rank_list[node] != _NIL:
            raise InvalidGraphError("list contains a cycle")
        rank_list[node] = r
        node = succ_list[node]
        r += 1
    rank = np.asarray(rank_list, dtype=np.int64)
    if r != n:
        raise InvalidGraphError("not all list elements are reachable from the head")
    ctx.sequential("sequential_list_rank", ops=float(n),
                   bytes_touched=float(2 * n * 8), random_access=True)
    return rank


def wyllie_rank(succ: np.ndarray, head: int,
                *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Rank a list with classical Wyllie pointer jumping.

    Every element stores a jump pointer and a partial distance *to the tail*;
    in each of ``O(log n)`` rounds all pointers double.  Total work is
    ``O(n log n)`` — theoretically suboptimal, practically simple; included as
    the ablation baseline for Wei–JaJa (``benchmarks/bench_ablations.py``).
    """
    ctx = ensure_context(ctx)
    succ = _validate_list(succ, head).copy()
    n = succ.size
    dist_to_tail = np.where(succ == _NIL, 0, 1).astype(np.int64)
    rounds = 0
    while True:
        active = succ != _NIL
        if not active.any():
            break
        rounds += 1
        idx = np.flatnonzero(active)
        nxt = succ[idx]
        dist_to_tail[idx] += dist_to_tail[nxt]
        succ[idx] = succ[nxt]
        ctx.kernel(
            "wyllie_jump",
            threads=int(idx.size),
            ops=2.0 * idx.size,
            bytes_read=float(idx.size) * 24.0,
            bytes_written=float(idx.size) * 16.0,
            launches=1,
            random_access=True,
        )
        if rounds > 2 * int(np.ceil(np.log2(max(n, 2)))) + 2:
            raise InvalidGraphError("pointer jumping did not converge; list is malformed")
    rank = (int(dist_to_tail[head])) - dist_to_tail
    if int(dist_to_tail[head]) != n - 1:
        raise InvalidGraphError("not all list elements are reachable from the head")
    return rank


def wei_jaja_rank(succ: np.ndarray, head: int,
                  *, num_splitters: Optional[int] = None,
                  seed: int = 0,
                  ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Rank a list with the Wei–JaJa (Helman–JaJa style) splitter algorithm.

    Parameters
    ----------
    succ, head:
        Successor-array list representation (see module docstring).
    num_splitters:
        Number of sublists to split the list into.  Defaults to roughly
        ``n / 64`` so each GPU "thread" (splitter) walks an expected 64
        elements, which is the regime in which the algorithm beats pointer
        jumping.  The head is always a splitter.
    seed:
        Seed for the random splitter choice (the algorithm is randomized but
        its output is exact).

    Notes
    -----
    The three phases are charged to the cost model individually:

    1. *sublist walk* — every splitter walks to the next one; one kernel,
       with the total number of hops as its work;
    2. *sublist ranking* — the list of ``s`` sublists is ranked sequentially
       (it is tiny: ``s ≪ n``);
    3. *offset add* — one map kernel over all ``n`` elements.

    The host writes one ``int64`` word per visit, ``sublist_id << k |
    local_rank`` with ``k = (n + 1).bit_length()`` (local ranks stay within
    the round bound ``n + 1``), so the bound is ``k + (num_splitters -
    1).bit_length() <= 63``: every list of up to 2**31 elements.  A list past
    it is refused with :class:`InvalidGraphError` before anything is allocated.
    """
    ctx = ensure_context(ctx)
    succ = _validate_list(succ, head)
    n = succ.size
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    if num_splitters is None:
        num_splitters = max(1, n // 64)
    num_splitters = int(min(max(num_splitters, 1), n))
    k = (n + 1).bit_length()
    if k + (num_splitters - 1).bit_length() > _WORD_BITS:
        raise InvalidGraphError(f"{num_splitters} sublists of {n} elements overflow a word")

    candidates = np.random.default_rng(seed).choice(n, num_splitters - 1, replace=False)
    if not (candidates == head).any():  # distinct: sorted, they are np.unique's
        candidates = np.append(candidates, head)
    splitters = np.sort(candidates)
    s = splitters.size

    # stop[x]: a walk that reaches x ends there.  x is a splitter or, in the
    # extra last slot that ``succ == -1`` indexes, the end of the list.  The
    # splitters are sorted, so a splitter's id is its position among them.
    stop = np.zeros(n + 1, dtype=bool)
    stop[splitters] = True
    stop[n] = True

    # packed[x] = sublist_id << k | local_rank, -1 where no walk has been.
    packed = np.full(n, _NIL, dtype=np.int64)

    # Phase 1: sublist walk.  On the device this is ONE kernel: every splitter
    # thread walks its own sublist to the next splitter inside the kernel.
    # The NumPy simulation advances the walks still under way one hop per
    # round (``cur[j]`` is where the walk tagged ``tag[j]`` stands; a tag is
    # the walk's next word, its low bits the hops taken so far).  A finished
    # walk leaves its last tag (id and length) and the element it ran into
    # (a splitter, or -1 past the tail).  The cost is charged once at the
    # end, with the total number of hops as the work and the longest sublist
    # as the critical path (captured through the per-lane bytes of the single
    # charged kernel) — neither depends on how many rounds the host takes.
    cur = splitters
    tag = np.arange(s, dtype=np.int64) << k
    ends, reached = [], []
    step = 0
    while tag.size:
        packed[cur] = tag
        tag += 1
        step += 1
        nxt = succ[cur]
        done = stop[nxt]
        if done.any():
            ends.append(tag[done])
            reached.append(nxt[done])
            keep = ~done
            cur = nxt[keep]
            tag = tag[keep]
        else:
            cur = nxt
        if step > n + 1:
            raise InvalidGraphError("sublist walk did not terminate; list is malformed")
    ends, reached = np.concatenate(ends), np.concatenate(reached)
    finished = ends >> k
    sublist_len = np.empty(s, dtype=np.int64)
    sublist_len[finished] = ends & ((1 << k) - 1)
    # sublist_next[i]: the sublist after sublist i in list order, -1 after the last.
    sublist_next = np.empty(s, dtype=np.int64)
    sublist_next[finished] = np.where(reached < 0, _NIL, splitters.searchsorted(reached))
    total_hops = int(sublist_len.sum())
    ctx.kernel(
        "weijaja_sublist_walk",
        threads=s,
        ops=3.0 * total_hops,
        bytes_read=float(total_hops) * 32.0,
        bytes_written=float(total_hops) * 24.0,
        launches=1,
        divergent=True,
        random_access=True,
    )

    if total_hops != n or (packed == _NIL).any():
        raise InvalidGraphError("not all list elements are reachable from the head")

    # Phase 2: rank the sublists by walking the (short) sublist-successor list
    # starting from the head's sublist.  A walk of more than s hops revisits a
    # sublist, so s hops bound it.
    follower = sublist_next.tolist()
    chain = []
    cur_sub = int(splitters.searchsorted(head))
    for _ in range(s):
        if cur_sub == _NIL:
            break
        chain.append(cur_sub)
        cur_sub = follower[cur_sub]
    if cur_sub != _NIL:
        raise InvalidGraphError("sublist chain contains a cycle; list is malformed")
    chain = np.asarray(chain, dtype=np.int64)
    lengths = sublist_len[chain]
    ends = np.cumsum(lengths)
    if chain.size != s or int(ends[-1]) != n:
        raise InvalidGraphError("not all sublists are reachable from the head")
    offsets = np.empty(s, dtype=np.int64)
    offsets[chain] = ends - lengths
    ctx.sequential("weijaja_rank_sublists", ops=float(2 * s),
                   bytes_touched=float(3 * s * 8), random_access=True)

    # Phase 3: add the sublist offsets.  ``delta[i]`` turns word ``i << k | r``
    # into rank ``offsets[i] + r``, in place, a tile at a time.
    delta = offsets - (np.arange(s, dtype=np.int64) << k)
    for lo in range(0, n, _TILE):
        part = packed[lo:lo + _TILE]
        part += delta[part >> k]
    ctx.kernel("weijaja_add_offsets", threads=n, ops=float(n), bytes_read=float(2 * n * 8),
               bytes_written=float(n * 8), launches=1, random_access=True)
    return packed


def canonical_rank_method(method: str) -> str:
    """A list-ranking method name in canonical spelling; ``ValueError`` if unknown."""
    key = method.strip().lower().replace("_", "-")
    if key in ("wei-jaja", "weijaja", "helman-jaja"):
        return "wei-jaja"
    if key in ("wyllie", "sequential"):
        return key
    raise ValueError(f"unknown list-ranking method {method!r}")


def list_rank(succ: np.ndarray, head: int, *, method: str = "wei-jaja",
              num_splitters: Optional[int] = None, seed: int = 0,
              ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Rank a linked list with the selected algorithm.

    ``method`` is one of ``"wei-jaja"`` (default, the paper's choice),
    ``"wyllie"`` (pointer jumping) or ``"sequential"`` (CPU baseline).
    """
    key = canonical_rank_method(method)
    if key == "wei-jaja":
        return wei_jaja_rank(succ, head, num_splitters=num_splitters, seed=seed, ctx=ctx)
    if key == "wyllie":
        return wyllie_rank(succ, head, ctx=ctx)
    return sequential_rank(succ, head, ctx=ctx)


def charge_order_from_ranks(ctx: ExecutionContext, n: int) -> None:
    """Book the scatter that inverts ``n`` ranks without running it."""
    ctx.kernel("order_from_ranks", threads=max(n, 1), ops=float(n), bytes_read=float(n * 8),
               bytes_written=float(n * 8), launches=1, random_access=True)


def order_from_ranks(ranks: np.ndarray,
                     *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
    """Invert a rank array: ``order[r]`` is the element with rank ``r``.

    This is the scatter that materializes the Euler tour as an array after the
    single list-ranking call (paper §2.2).  An Euler tour build books it
    (:func:`charge_order_from_ranks`) and runs it only when the array is read.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.size
    order = np.empty(n, dtype=np.int64)
    order[ranks] = np.arange(n)
    charge_order_from_ranks(ensure_context(ctx), n)
    return order
