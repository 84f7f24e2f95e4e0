"""The serving stack against its executable spec, ``tests/spec_serving.py``: the
outcome of every call (tickets, or the error with its fields, such as an
``Overloaded``'s admitted and shed counts), the answers, latency bytes and
counters must be equal.  The pinned examples are regressions of the pairwise
tests, most of them tests the spec replaced."""

from typing import NamedTuple, Optional, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.service import (ClusterConfig, ClusterService, FaultEvent, FaultInjector,
                           LCAQueryService, ServiceConfig)

from .conftest import TREE_KINDS, make_tree, spec_config
from .spec_serving import SpecCluster, SpecService, observables

#: Per-worker answer-cache bytes of the ``cache`` draws (None: off or dedup only).
CACHE_BYTES = {"64 slots": 1024, "4 MiB": 4 << 20}


class Case(NamedTuple):
    """``rows`` are ``(dataset, x, y, arrival)``; ``replicas`` 0 is a single
    node; ``chunk`` 0 is a loop of ``submit``; ``cache`` is None, "dedup" or a
    key of :data:`CACHE_BYTES`; ``faults`` are ``(action, replica, value, t)``."""

    kind: str
    n: int
    rows: Tuple[Tuple[int, int, int, float], ...]
    datasets: int = 1
    replicas: int = 0
    on: Tuple[Tuple[int, ...], ...] = ()
    max_batch: int = 8
    max_wait: float = 2e-4
    cache: Optional[str] = None
    chunk: int = 1000
    max_pending: Optional[int] = None
    hedge: Optional[float] = None
    faults: Optional[tuple] = None
    warm: bool = False
    seed: int = 0


def rows(name, xs, ys, at):
    names = np.broadcast_to(name, len(at)).tolist()
    return tuple(zip(names, *(np.asarray(column).tolist() for column in (xs, ys, at))))


def keys(q, n, seed, pool=None):
    """``q`` query pairs over ``n`` nodes, drawn from ``pool`` pairs when given."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(pool or q, 2))[rng.integers(0, pool or q, q)]
    return pairs[:, 0], pairs[:, 1]


@st.composite
def cases(draw):
    n, datasets = draw(st.integers(2, 200)), draw(st.integers(1, 2))
    replicas = draw(st.sampled_from((0, 0, 1, 2, 3, 4)))
    wait = draw(st.sampled_from((0.0, 1e-5, 2e-4, 1e-3)))
    q, seed = draw(st.integers(1, 80)), draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Gaps of one wait put deadlines exactly on arrivals.
    gaps = (0.0, 0.0, wait / 2, wait, 3 * wait) if wait else (0.0, 1e-5, 1e-4)
    pairs = keys(q, n, seed, int(rng.choice((3, 30, n * n))))
    stream = rows(rng.integers(0, datasets, q), *pairs, rng.choice(gaps, q).cumsum())
    on, faults = (), None
    if replicas:
        copies = st.lists(st.integers(0, replicas - 1), min_size=1, unique=True)
        on = tuple(tuple(draw(copies)) for _ in range(datasets))
        r = draw(st.integers(0, replicas - 1))
        t = stream[draw(st.integers(0, q - 1))][3]
        kill = (("kill", r, 0, t), ("recover", r, 0, t + 4 * wait))
        slow, flaky = (("slowdown", r, 50.0, t),), (("transient", r, 3, t),)
        faults = draw(st.sampled_from((None, (), kill, slow, flaky)))
    kind, batch = draw(st.sampled_from(TREE_KINDS)), draw(st.integers(1, 32))
    cache = draw(st.sampled_from((None, "dedup", *CACHE_BYTES)))
    chunk, warm = draw(st.sampled_from((0, 1, 3, 16, 1000))), draw(st.booleans())
    bound = draw(st.sampled_from((None, None, 4, 16))) if replicas else None
    hedge = draw(st.sampled_from((None, 5e-6, 5e-5))) if replicas else None
    return Case(kind, n, stream, datasets, replicas, on, batch, wait, cache, chunk,
                bound, hedge, faults, warm, seed)


def event(action, replica, value, t):
    """A fault of ``Case.faults``: ``value`` is a slowdown's factor or a
    transient's count."""
    knob = {"slowdown": "factor", "transient": "count"}.get(action)
    return FaultEvent(t, action, replica=replica, **({knob: value} if knob else {}))


def build(case, spec):
    """The real service or cluster of ``case``, or its spec."""
    knobs = dict(max_batch_size=case.max_batch, max_wait_s=case.max_wait)
    knobs.update(dedup=case.cache == "dedup")
    cache = CACHE_BYTES.get(case.cache)
    if not case.replicas:
        config = ServiceConfig(**knobs, answer_cache_bytes=cache)
        target = SpecService(config) if spec else LCAQueryService(config=config)
    else:
        if cache == CACHE_BYTES["64 slots"]:
            cache *= case.replicas
        config = ClusterConfig(n_replicas=case.replicas, max_pending=case.max_pending,
                               hedge_delay_s=case.hedge, answer_cache_bytes=cache,
                               **knobs)
        events = None if case.faults is None else [event(*f) for f in case.faults]
        if spec:
            target = SpecCluster(spec_config(config), events)
        else:
            injector = None if events is None else FaultInjector(events)
            target = ClusterService(config=config, fault_injector=injector)
    for k in range(case.datasets):
        on = {"on": case.on[k]} if case.replicas else {}
        target.register_tree(f"d{k}", make_tree(case.kind, case.n, case.seed + k), **on)
        if case.warm:
            target.warm(f"d{k}")
    return target


def drive(target, case):
    """Submit the stream in ``case.chunk`` blocks (never across datasets), then
    drain; the outcome of every call."""
    chunks, outcomes = [], []
    for row in case.rows:
        if chunks and case.chunk > len(chunks[-1]) and chunks[-1][-1][0] == row[0]:
            chunks[-1].append(row)
        else:
            chunks.append([row])
    for chunk in chunks + [None]:
        try:
            if chunk is None:
                target.drain()
            elif case.chunk:
                _, xs, ys, at = map(np.array, zip(*chunk))
                tickets = target.submit_many(f"d{chunk[0][0]}", xs, ys, at=at)
                outcomes.append(tickets.tolist())
            else:
                name, x, y, t = chunk[0]
                outcomes.append(target.submit(f"d{name}", x, y, at=t))
        except ReproError as error:
            outcomes.append((type(error).__name__, str(error), vars(error)))
    return outcomes


def steady(q, n, seed, gap, pool=None):
    """``q`` rows on dataset 0, ``gap`` seconds apart."""
    return rows(0, *keys(q, n, seed, pool), np.arange(q) * gap)


TWO = {"replicas": 2, "on": ((0, 1),)}  # dataset 0 on both of two replicas
#: Dataset 1 waits while a slower-than-the-wait block on dataset 0 arrives.
INTERLEAVED_DEADLINES = Case("shallow", 600, rows(1, [0, 3, 6, 9], [1, 4, 7, 10], [
    0, 1e-5, 2e-5, 3e-5]) + rows(0, *keys(120, 600, 2), 4e-5 + np.arange(120) * 2e-4),
    datasets=2, max_batch=16, max_wait=5e-4)
#: ``max_wait_s=0``: a size batch and a wait batch of one block share an
#: instant while another dataset waits; submission order must hold.
SAME_INSTANT_SIZE_AND_WAIT = Case("shallow", 64, rows(1, [1], [2], [0]) + rows(
    0, [3, 4, 5, 6], [7, 8, 9, 10], [0, 0, 0, 1.0]), 2, max_batch=2, max_wait=0.0)
#: Size flushes of 100 (GPU) and wait flushes of 25 (CPU) alternate in one block.
CROSSOVER = Case("shallow", 600, rows(0, *keys(375, 600, 50), np.repeat(
    np.arange(6) * 2e-4, [100, 25] * 3)), max_batch=100, max_wait=1e-4)
#: Three keys: later batches of a span hit what its first inserted; the second
#: block hits at the front door.
SKEWED_SPANS = Case("shallow", 64, rows(0, *keys(80, 64, 3, 3), [0] * 40 + [1e-3] * 40),
                    max_batch=4, max_wait=1e-4, cache="4 MiB", chunk=40)
#: 64 slots (44 keys an epoch) under batches of 64 new keys: resets, truncation.
CACHE_RESETS = Case("shallow", 200, steady(150, 200, 5, 1e-6), max_batch=64,
                    max_wait=1e-3, cache="64 slots")
#: Replica 0 runs 50x slower: its batches are hedged on replica 1, most won.
HEDGED = Case("shallow", 128, steady(96, 128, 11, 5e-6), **TWO, max_batch=16,
              max_wait=1e-4, chunk=16, hedge=5e-6, faults=(("slowdown", 0, 50.0, 0),))
#: A kill strands queued rows mid-stream: they fail over with their debt.
FAILOVER = Case("shallow", 256, steady(200, 256, 56, 5e-6), **TWO, max_batch=16,
                max_wait=5e-4, chunk=50, faults=(("kill", 0, 0, 5e-4),
                                                 ("recover", 0, 0, 7.5e-4)))
#: The kill re-admits ticket 1 onto replica 1 behind the newer ticket 2, and
#: ticket 3 fills the batch: its tickets 0, 2, 1, 3 span a consecutive range
#: out of order, so writing them as one slice would swap two answers.
READMITTED_BEHIND_NEWER = Case("shallow", 64, rows(0, [1, 2, 3, 4], [5, 6, 7, 8], [
    0, 1e-6, 2e-6, 3e-6]), replicas=2, on=((1, 0),), max_batch=4, max_wait=1e-3,
    chunk=1, faults=(("kill", 0, 0, 3e-6),))
#: Replica 0 fails its first three batches: each is retried on replica 1.
FLAKY = Case("shallow", 128, steady(96, 128, 12, 5e-6), **TWO, max_batch=16, chunk=16,
             faults=(("transient", 0, 3, 0.0),))
#: Both copies failing: a batch ping-pongs between them until its fourth
#: retry, which is past the cap.
RETRY_CAP = Case("shallow", 32, steady(8, 32, 7, 1e-5), **TWO, max_batch=2, chunk=1,
                 faults=(("transient", 0, 4, 0.0), ("transient", 1, 4, 0.0)))
#: The only copy dies: later submissions and the drain raise ``ReplicaDown``.
DEAD_DATASET = Case("shallow", 32, steady(8, 32, 8, 1e-4), replicas=2, on=((1,),),
                    chunk=2, faults=(("kill", 1, 0, 3e-4), ("recover", 1, 0, 1.0)))
#: A shed advances the worker clocks, and the frontier with them; in blocks of
#: two, the first block is part shed and every later one wholly.
SHED_THEN_DRAIN = Case("shallow", 64, steady(6, 64, 21, 1.0), **TWO, max_wait=10.0,
                       chunk=0, max_pending=1)


@settings(max_examples=200, deadline=None)
@given(case=cases())
@example(case=INTERLEAVED_DEADLINES)
@example(case=SAME_INSTANT_SIZE_AND_WAIT)
@example(case=SAME_INSTANT_SIZE_AND_WAIT._replace(chunk=0))
@example(case=CROSSOVER)
@example(case=SKEWED_SPANS)
@example(case=CACHE_RESETS)
@example(case=HEDGED)
@example(case=FAILOVER)
@example(case=READMITTED_BEHIND_NEWER)
@example(case=FLAKY)
@example(case=RETRY_CAP)
@example(case=DEAD_DATASET)
@example(case=SHED_THEN_DRAIN)
@example(case=SHED_THEN_DRAIN._replace(chunk=2))
def test_the_serving_stack_is_its_spec(case):
    real, spec = build(case, spec=False), build(case, spec=True)
    assert drive(real, case) == drive(spec, case)
    assert observables(real) == observables(spec)
