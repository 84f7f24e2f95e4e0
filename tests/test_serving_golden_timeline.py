"""Golden modeled timeline of the serving stack.

How the host forms, prices, serves and books a flushed batch is free to
change; what a caller can observe on the simulated clock is not.  For a few
small fixed-seed streams ``golden/serving_timeline.json`` pins the sha256 of
every answer, of the ``float64`` latency bytes and of the canonical trace
table an attached observer recorded, plus the stats counters a flush feeds
(busy time, backend choices, flush triggers, batch-size histogram, registry
and answer-cache accounting).  The file was recorded at the commit before the
flush path was straightened::

    python -m tests.test_serving_golden_timeline > tests/golden/serving_timeline.json

and is re-recorded only at a commit whose modeled behaviour is *meant* to
change.  The two ``interleaved`` trace digests were re-recorded, alone, when
an index came to be booked at its packed tables only: their eviction events
carry the freed bytes, and their budget halved with the entries, so the same
entries fit.  Equality is exact, floats included (JSON round-trips Python
floats).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends.calibrate import CalibrationProfile
from repro.errors import ReplicaDown
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.obs import TraceRecorder
from repro.service import (
    ClusterConfig,
    ClusterService,
    FaultEvent,
    FaultInjector,
    LCAQueryService,
    ServiceConfig,
)
from repro.service.dispatch import dispatcher_for
from repro.workloads import (
    Phase,
    PoissonArrivals,
    QueryPoolKeys,
    Scenario,
    TrafficSource,
    replay,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "serving_timeline.json"
BACKENDS_BENCH = Path(__file__).parent.parent / "BENCH_backends.json"

#: Small enough that both triggers fire at ~40 arrivals per wait window.
BATCHING = {"max_batch_size": 32, "max_wait_s": 2e-4}
#: Wide enough that a burst fills batches past both dispatch crossovers (50
#: queries under the roofline model, ~380 under the reference profile).
WIDE_BATCHING = {"max_batch_size": 512, "max_wait_s": 2e-4}
#: ``(rate_qps, duration_s)`` segments: wait flushes that straddle the
#: roofline crossover, then mid-sized ones, then size flushes.
RAMP = ((200_000.0, 0.02), (1_000_000.0, 0.003), (4_000_000.0, 0.001))
WINDOW_S = 5e-3


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def trace_digest(observer):
    table = observer.table().canonical()
    columns = digest(
        table.time_s,
        table.kind,
        table.ticket,
        table.batch,
        table.replica,
        table.detail,
        table.aux,
    )
    return {"events": table.n_events, "labels": list(table.labels), "sha256": columns}


def worker_counters(stats):
    """The per-flush bookkeeping of one ``ServiceStats`` snapshot."""
    return {
        "queries_submitted": stats.queries_submitted,
        "queries_answered": stats.queries_answered,
        "kernel_queries": stats.kernel_queries,
        "batches_flushed": stats.batches_flushed,
        "busy_time_s": stats.busy_time_s,
        "span_s": stats.span_s,
        "backend_choices": dict(sorted(stats.backend_choices.items())),
        "flush_triggers": dict(sorted(stats.flush_triggers.items())),
        "batch_size_histogram": {
            str(bucket): count
            for bucket, count in sorted(stats.batch_size_histogram.items())
        },
        "registry": [stats.cache_hits, stats.cache_misses, stats.cache_evictions],
        "answer_cache": [
            stats.answer_cache_hits,
            stats.answer_cache_misses,
            stats.answer_cache_resets,
        ],
    }


def observe(target, observer):
    """Everything the golden file pins about a drained target."""
    tickets = np.arange(target.tickets_issued, dtype=np.int64)
    stats = target.stats()
    observed = {
        "tickets": int(tickets.size),
        "answers": digest(target.results(tickets)),
        "latencies": digest(target.latencies(tickets).astype(np.float64, copy=False)),
        "trace": trace_digest(observer),
    }
    if isinstance(target, ClusterService):
        observed["cluster"] = {
            "busy_time_s": stats.busy_time_s,
            "queries_shed": stats.queries_shed,
            "queries_retried": stats.queries_retried,
            "hedges": [stats.hedges_issued, stats.hedges_won],
            "faults_injected": stats.faults_injected,
            "load_imbalance": stats.load_imbalance,
        }
        observed["workers"] = [worker_counters(w) for w in stats.replicas]
    else:
        observed["workers"] = [worker_counters(stats)]
    return json.loads(json.dumps(observed))


# ----------------------------------------------------------------------
# Single-node streams, driven block-wise or row-wise
# ----------------------------------------------------------------------
def poisson_stream(datasets, segments, *, seed):
    """``[(dataset, xs, ys, at)]`` blocks: one per dataset run per window."""
    rng = np.random.default_rng(seed)
    pieces, t0 = [], 0.0
    for rate_qps, duration_s in segments:
        pieces.append(PoissonArrivals(rate_qps).generate(t0, duration_s, rng))
        t0 += duration_s
    at = np.concatenate(pieces)
    names = sorted(datasets)
    # Sessions of 24 same-dataset queries: shorter than a batch, so batches
    # of one dataset routinely expire while another dataset is submitting.
    owner = np.repeat(rng.integers(0, len(names), size=at.size // 24 + 1), 24)
    owner = owner[: at.size]
    window = np.floor(at / WINDOW_S).astype(np.int64)
    cuts = np.flatnonzero((np.diff(owner) != 0) | (np.diff(window) != 0)) + 1
    blocks = []
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, at.size]):
        name = names[int(owner[a])]
        n = datasets[name].size
        xs, ys = generate_random_queries(n, int(b - a), seed=seed + int(a) + 1)
        blocks.append((name, xs, ys, at[a:b]))
    return blocks


def serve_stream(service, datasets, blocks, *, rowwise):
    observer = TraceRecorder()
    service.attach_observer(observer)
    for name, parents in datasets.items():
        service.register_tree(name, parents)
    for name, xs, ys, at in blocks:
        if rowwise:
            for x, y, t in zip(xs.tolist(), ys.tolist(), at.tolist()):
                service.submit(name, x, y, at=t)
        else:
            service.submit_many(name, xs, ys, at=at)
    service.drain()
    return observe(service, observer)


def steady_case(*, rowwise, calibrated=False):
    def run():
        datasets = {"steady": random_attachment_tree(2048, seed=3)}
        blocks = poisson_stream(datasets, RAMP, seed=5)
        config = ServiceConfig(**WIDE_BATCHING)
        dispatcher = None
        if calibrated:
            reference = json.loads(BACKENDS_BENCH.read_text())["config"]
            profile = CalibrationProfile.from_dict(reference["reference_profile"])
            dispatcher = dispatcher_for(profile.backends(), profile=profile)
        service = LCAQueryService(config=config, dispatcher=dispatcher)
        return serve_stream(service, datasets, blocks, rowwise=rowwise)

    return run


def interleaved_case(*, rowwise):
    """Two trees, cache off: other datasets' deadlines fire inside a block,
    and an index registry one artifact short of holding all four evicts."""

    def run():
        datasets = {
            "big": random_attachment_tree(4096, seed=7),
            "small": random_attachment_tree(512, seed=8),
        }
        blocks = poisson_stream(datasets, ((400_000.0, 0.015),), seed=9)
        config = ServiceConfig(
            max_batch_size=64, max_wait_s=2e-4, capacity_bytes=300_000
        )
        service = LCAQueryService(config=config)
        return serve_stream(service, datasets, blocks, rowwise=rowwise)

    return run


# ----------------------------------------------------------------------
# Scenario replays
# ----------------------------------------------------------------------
def skewed_case():
    scenario = Scenario(
        name="golden-skew",
        description="two repeated-query pools, short sessions",
        sources=(
            TrafficSource(
                "zipfy",
                nodes=4096,
                weight=0.6,
                keys=QueryPoolKeys(pool_fraction=1.0 / 32.0, alpha=1.3, pool_seed=21),
                tree_seed=11,
            ),
            TrafficSource(
                "hotspot",
                nodes=1024,
                weight=0.4,
                keys=QueryPoolKeys(pool_fraction=1.0 / 64.0, alpha=0.0, pool_seed=22),
                tree_seed=12,
            ),
        ),
        phases=(Phase("steady", PoissonArrivals(150_000.0), 0.04),),
        seed=13,
        mix_stride=96,
    )
    observer = TraceRecorder()
    service = LCAQueryService(
        config=ServiceConfig(dedup=True, answer_cache_bytes=4 << 20, **BATCHING)
    )
    replay(service, scenario, admission_window_s=WINDOW_S, observer=observer)
    return observe(service, observer)


def flash_case():
    calm = PoissonArrivals(100_000.0)
    scenario = Scenario(
        name="golden-flash",
        description="calm load with a short 20x flash",
        sources=(TrafficSource("flash", nodes=2048, tree_seed=15),),
        phases=(
            Phase("calm", calm, 0.015),
            Phase("flash", PoissonArrivals(2_000_000.0), 0.005),
            Phase("recovery", calm, 0.015),
        ),
        seed=17,
    )
    observer = TraceRecorder()
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=4,
            router="least-outstanding",
            max_pending=2048,
            max_batch_size=64,
            max_wait_s=2e-4,
        )
    )
    replay(cluster, scenario, admission_window_s=1e-3, observer=observer)
    return observe(cluster, observer)


def chaos_case():
    """A kill (failover re-admits with ``latency_debt``) and a straggler
    (a slowed replica on a blind router, so ``serve_hedge`` runs)."""
    rate = PoissonArrivals(150_000.0)
    scenario = Scenario(
        name="golden-chaos",
        description="steady load across a slowdown, a kill and a recovery",
        sources=(TrafficSource("chaos", nodes=2048, tree_seed=19, key_seed=20),),
        phases=(
            Phase("slow", rate, 0.012),
            Phase("outage", rate, 0.012),
            Phase("post", rate, 0.012),
        ),
        seed=23,
    )
    injector = FaultInjector(
        [
            FaultEvent(0.002, "slowdown", replica=1, factor=150.0),
            FaultEvent(0.0145, "kill", replica=0),
            FaultEvent(0.020, "slowdown", replica=1, factor=1.0),
            FaultEvent(0.024, "recover", replica=0),
            FaultEvent(0.028, "transient", replica=2, count=6),
        ]
    )
    observer = TraceRecorder()
    cluster = ClusterService(
        config=ClusterConfig(
            n_replicas=3, router="round-robin", hedge_delay_s=1e-4, **BATCHING
        ),
        fault_injector=injector,
    )
    replay(cluster, scenario, admission_window_s=1e-3, observer=observer)
    return observe(cluster, observer)


def elastic_case():
    """Membership under fire.  A kill strands a pinned dataset's queue (parked:
    its only copy is down), a second kill fails the other dataset over,
    the cluster scales out around the parked queries, takes traffic, scales in
    past a dead victim and a live one (the dead sole-copy holder is not
    retirable), and the recovery un-parks."""
    datasets = {
        "wide": random_attachment_tree(2048, seed=25),
        "solo": random_attachment_tree(512, seed=26),
    }
    injector = FaultInjector(
        [
            FaultEvent(0.005, "kill", replica=0),
            FaultEvent(0.008, "kill", replica=1),
            FaultEvent(0.024, "recover", replica=0),
        ]
    )
    observer = TraceRecorder()
    cluster = ClusterService(
        config=ClusterConfig(n_replicas=3, router="least-outstanding", **BATCHING),
        fault_injector=injector,
    )
    cluster.attach_observer(observer)
    cluster.register_tree("wide", datasets["wide"], replicas=0)
    cluster.register_tree("solo", datasets["solo"], on=[0])
    scale_at = {10: 5, 16: 3}  # window -> scale_to() target
    at = PoissonArrivals(150_000.0).generate(0.0, 0.030, np.random.default_rng(27))
    window = np.floor(at / 1e-3).astype(np.int64)
    changed, refused = [], 0
    for w in range(30):
        if w in scale_at:
            cluster.advance_to(w * 1e-3)
            changed.append(list(cluster.scale_to(scale_at[w])))
        lo, hi = np.searchsorted(window, [w, w + 1])
        # Each window: "wide" traffic, then a shorter "solo" tail — sent while
        # solo's only copy is down just once, to pin the refusal.
        cut = lo + 2 * (hi - lo) // 3
        solo_up = w < 5 or w >= 24
        blocks = [("wide", lo, cut if solo_up or w == 6 else hi)]
        if solo_up or w == 6:
            blocks.append(("solo", cut, hi))
        for name, a, b in blocks:
            n = datasets[name].size
            xs, ys = generate_random_queries(n, int(b - a), seed=28 + int(a))
            try:
                cluster.submit_many(name, xs, ys, at=at[a:b])
            except ReplicaDown:
                refused += int(b - a)
    cluster.drain()
    observed = observe(cluster, observer)
    stats = cluster.stats()
    observed["elastic"] = {
        "changed": changed,
        "refused": refused,
        "membership_events": stats.membership_events,
        "replica_seconds": stats.replica_seconds,
        "placement": {name: list(cluster.placement(name)) for name in datasets},
        "active_live": [cluster.n_active, cluster.n_live],
    }
    return json.loads(json.dumps(observed))


CASES = {
    "steady/submit_many": steady_case(rowwise=False),
    "steady/submit": steady_case(rowwise=True),
    "steady-calibrated/submit_many": steady_case(rowwise=False, calibrated=True),
    "steady-calibrated/submit": steady_case(rowwise=True, calibrated=True),
    "interleaved/submit_many": interleaved_case(rowwise=False),
    "interleaved/submit": interleaved_case(rowwise=True),
    "skewed-cached": skewed_case,
    "cluster-flash": flash_case,
    "cluster-chaos": chaos_case,
    "cluster-elastic": elastic_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_serving_timeline_is_bit_identical(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert CASES[case]() == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: CASES[case]() for case in sorted(CASES)}, indent=1))
