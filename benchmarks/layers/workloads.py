"""The eight workloads: inputs, oracle, target construction, one timed pass.

A workload splits its life into four parts so the harness can time each on
its own terms:

* :meth:`Workload.make_inputs` — the *benchmark's* side: generate inputs from
  the seed, hash them, and compute the expected outputs with an independent
  oracle (``BinaryLiftingLCA`` for LCA answers, ``find_bridges_dfs`` for
  bridges).  The program under test receives only the generated arrays.
* :meth:`Workload.make_target` — the *system's* set-up: construct the service
  or index and warm its caches.  Counted into ``setup_s``.
* :meth:`Workload.run_pass` — one closed-loop pass with a single client, timed
  on the host clock around the façade calls only.
* :meth:`Workload.check` — compare the pass's outputs with the oracle, outside
  the timed region; returns the number of failed items.

The serving driver loop lives here, not in ``repro.workloads.replay`` (which
is ``src/`` and may change under a later PR): cut the stream at admission
windows and dataset runs, absorb ``Overloaded`` keeping the admitted prefix,
drain, read answers and modeled latencies back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import bridges
from repro.device import GTX980, ExecutionContext
from repro.errors import Overloaded
from repro.graphs import largest_connected_component
from repro.graphs.generators import (
    grasp_tree,
    kron_g500,
    random_attachment_tree,
    road_graph_with_target_size,
)
from repro.graphs.generators.random_trees import grasp_for_target_depth
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA, InlabelLCA
from repro.service import (
    ClusterConfig,
    ClusterService,
    LCAQueryService,
    ServiceConfig,
)
from repro.workloads import Scenario, make_scenario

__all__ = ["WORKLOADS", "Marks", "PassResult", "Workload", "generate_trace"]

_clock = time.perf_counter

#: The replay harness's admission window: one ``submit_many`` per 5 ms of
#: simulated time (and per dataset run).
ADMISSION_WINDOW_S = 5e-3

#: Oracle-checked query sample per tree where checking every query would
#: cost more than the pass itself.
SAMPLE_QUERIES = 100_000


class Marks(NamedTuple):
    """Manual spans the driver records when a tracer is attached."""

    run: ContextManager = nullcontext()
    block: ContextManager = nullcontext()


@dataclass
class PassResult:
    """What one pass produced: its host time, outputs to verify, counters."""

    seconds: float
    outputs: object
    #: Exact-repeat counters and simulated-clock quantities of this pass.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of each front-door block (serve-*), for block percentiles.
    block_s: Sequence[float] = ()
    #: Other host-time per-layer metrics this pass measured itself, by metric
    #: name (bulk-query: ns per query at each batch size).
    host: Dict[str, float] = field(default_factory=dict)


def _sha256(arrays: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass
class Inputs:
    """Generated inputs plus the oracle's expected outputs."""

    #: Items one pass processes (the denominator of ``items_per_s``).
    items: int
    sha256: str
    #: Host seconds spent in the ``repro`` generators (the ``workloads.gen``
    #: layer); the oracle's time is not in it.
    gen_s: float
    data: dict
    #: Offered rate of the scenario on the simulated clock (serve-* only).
    offered_qps: float = 0.0


class Workload:
    """Base class; see the module docstring for the four-part contract."""

    name = ""
    #: What ``items_per_s`` counts.
    item = ""
    #: One line for ``BENCHMARK.json``: why this workload exists.
    why = ""
    #: Build a new target (untimed) before every pass: a simulated clock
    #: cannot be rewound, so a serving pass needs a fresh service.
    fresh_target = False

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        raise NotImplementedError

    def make_target(self, inputs: Inputs) -> object:
        return None

    def run_pass(self, inputs: Inputs, target: object, marks: Marks) -> PassResult:
        raise NotImplementedError

    def check(self, inputs: Inputs, result: PassResult) -> int:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Preprocessing and kernel workloads
# ----------------------------------------------------------------------
class IndexBuild(Workload):
    name = "index-build"
    item = "node indexed"
    why = (
        "InlabelLCA build on a shallow and a deep 262,144-node tree: the "
        "preprocessing chain (DCEL, tour, list rank, tree stats, Inlabel) does "
        "all the work, kernels and serving none."
    )

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        n = 2_048 if smoke else 262_144
        depth = 1_000.0 if not smoke else 64.0
        t0 = _clock()
        trees = {
            "shallow": random_attachment_tree(n, seed=seed),
            "deep": grasp_tree(n, grasp_for_target_depth(n, depth), seed=seed + 1),
        }
        gen_s = _clock() - t0
        samples = {}
        for i, (name, parents) in enumerate(trees.items()):
            xs, ys = generate_random_queries(
                n, min(SAMPLE_QUERIES, 8 * n), seed=seed + 2 + i
            )
            samples[name] = (xs, ys, BinaryLiftingLCA(parents).query(xs, ys))
        return Inputs(
            items=2 * n,
            sha256=_sha256(list(trees.values())),
            gen_s=gen_s,
            data={"trees": trees, "samples": samples},
        )

    def run_pass(self, inputs: Inputs, target: object, marks: Marks) -> PassResult:
        built = {}
        modeled = 0.0
        t0 = _clock()
        with marks.run:
            for name, parents in inputs.data["trees"].items():
                ctx = ExecutionContext(GTX980)
                built[name] = InlabelLCA(parents, ctx=ctx)
                modeled += ctx.elapsed
        seconds = _clock() - t0
        return PassResult(seconds, built, {"modeled.device_s": modeled})

    def check(self, inputs: Inputs, result: PassResult) -> int:
        failed = 0
        for name, index in result.outputs.items():
            xs, ys, expected = inputs.data["samples"][name]
            if not np.array_equal(index.query(xs, ys), expected):
                failed += int(inputs.data["trees"][name].size)
        return failed


class BulkQuery(Workload):
    name = "bulk-query"
    item = "query"
    why = (
        "Prebuilt 262,144-node index answering 1,048,576 queries at batch "
        "sizes 1,024 / 65,536 / 1,048,576: the kernel is the whole pass, "
        "preprocessing is in set-up (the paper's Fig. 6 regime)."
    )
    batch_sizes = (1_024, 65_536, 1_048_576)

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        n = 2_048 if smoke else 262_144
        q = 1 << 13 if smoke else 1 << 20
        t0 = _clock()
        parents = random_attachment_tree(n, seed=seed)
        xs, ys = generate_random_queries(n, q, seed=seed + 1)
        gen_s = _clock() - t0
        k = min(SAMPLE_QUERIES, q)
        expected = BinaryLiftingLCA(parents).query(xs[:k], ys[:k])
        return Inputs(
            items=len(self.batch_sizes) * q,
            sha256=_sha256([parents, xs, ys]),
            gen_s=gen_s,
            data={"parents": parents, "xs": xs, "ys": ys, "expected": expected},
        )

    def make_target(self, inputs: Inputs) -> object:
        return InlabelLCA(inputs.data["parents"])

    def run_pass(self, inputs: Inputs, target: object, marks: Marks) -> PassResult:
        xs, ys = inputs.data["xs"], inputs.data["ys"]
        q = int(xs.size)
        ctx = ExecutionContext(GTX980)
        outputs: Dict[int, List[np.ndarray]] = {}
        sweep_s: Dict[int, float] = {}
        with marks.run:
            for b in self.batch_sizes:
                t0 = _clock()
                outputs[b] = [
                    target.query(xs[a : a + b], ys[a : a + b], ctx=ctx)
                    for a in range(0, q, b)
                ]
                sweep_s[b] = _clock() - t0
        return PassResult(
            sum(sweep_s.values()),
            outputs,
            {"modeled.device_s": ctx.elapsed},
            host={
                f"kernel.ns_per_query.b{b}": s / q * 1e9 for b, s in sweep_s.items()
            },
        )

    def check(self, inputs: Inputs, result: PassResult) -> int:
        expected = inputs.data["expected"]
        answers = [np.concatenate(chunks) for chunks in result.outputs.values()]
        # The sample pins the first batch size to the oracle; the other batch
        # sizes must then agree with it on every query.
        failed = int(np.count_nonzero(answers[0][: expected.size] != expected))
        for other in answers[1:]:
            failed += int(np.count_nonzero(other != answers[0]))
        return failed


class BridgesTV(Workload):
    name = "bridges-tv"
    item = "edge"
    why = (
        "Tarjan-Vishkin bridges on a road-like and a Kronecker graph: the "
        "paper's second application drives euler/primitives through the "
        "edge-list path (spanning tree, segreduce, RMQ) that index-build skips."
    )

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        t0 = _clock()
        road, _ = road_graph_with_target_size(2_000 if smoke else 100_000, seed=seed)
        kron = kron_g500(9 if smoke else 15, seed=seed + 1)
        graphs = {
            "road": largest_connected_component(road)[0],
            "kron": largest_connected_component(kron)[0],
        }
        gen_s = _clock() - t0
        expected = {
            name: bridges.find_bridges_dfs(g).bridge_mask for name, g in graphs.items()
        }
        arrays = [a for g in graphs.values() for a in (g.u, g.v)]
        return Inputs(
            items=sum(g.num_edges for g in graphs.values()),
            sha256=_sha256(arrays),
            gen_s=gen_s,
            data={"graphs": graphs, "expected": expected},
        )

    def run_pass(self, inputs: Inputs, target: object, marks: Marks) -> PassResult:
        masks = {}
        modeled = 0.0
        t0 = _clock()
        with marks.run:
            for name, graph in inputs.data["graphs"].items():
                ctx = ExecutionContext(GTX980)
                # Looked up on the module at call time, so that a traced
                # pass reaches the tracer's wrapper and not the original.
                result = bridges.find_bridges_tarjan_vishkin(graph, ctx=ctx)
                masks[name] = result.bridge_mask
                modeled += ctx.elapsed
        seconds = _clock() - t0
        return PassResult(seconds, masks, {"modeled.device_s": modeled})

    def check(self, inputs: Inputs, result: PassResult) -> int:
        return sum(
            int(np.count_nonzero(mask != inputs.data["expected"][name]))
            for name, mask in result.outputs.items()
        )


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class Block(NamedTuple):
    """One front-door submission: a dataset run inside one admission window."""

    dataset: str
    xs: np.ndarray
    ys: np.ndarray
    at: np.ndarray


def generate_trace(
    scenario: Scenario, *, limit: Optional[int] = None
) -> Tuple[List[Block], Dict[str, np.ndarray]]:
    """A scenario's timed query stream as front-door blocks, plus its trees.

    Arrivals and the dataset mix come from one generator seeded with the
    scenario seed and each source's keys from its own — the draw order the
    replay harness uses — and the stream is cut at every admission-window
    boundary and every dataset-run boundary.  ``limit`` keeps the first
    ``limit`` queries.
    """
    sources = scenario.sources
    weights = np.array([s.weight for s in sources], dtype=np.float64)
    weights /= weights.sum()
    arrival_rng = np.random.default_rng(scenario.seed)
    key_rngs = [
        np.random.default_rng(
            scenario.seed + 1 + i if s.key_seed is None else s.key_seed
        )
        for i, s in enumerate(sources)
    ]
    blocks: List[Block] = []
    budget = limit
    t0 = 0.0
    for phase in scenario.phases:
        arrivals = phase.arrivals.generate(t0, phase.duration_s, arrival_rng)
        count = int(arrivals.size)
        if len(sources) > 1:
            strides = -(-count // scenario.mix_stride)
            picks = arrival_rng.choice(len(sources), size=strides, p=weights)
            assignment = np.repeat(picks, scenario.mix_stride)[:count]
        else:
            assignment = np.zeros(count, dtype=np.int64)
        xs = np.empty(count, dtype=np.int64)
        ys = np.empty(count, dtype=np.int64)
        for i, source in enumerate(sources):
            positions = np.flatnonzero(assignment == i)
            if positions.size:
                xs[positions], ys[positions] = source.keys.sample(
                    key_rngs[i], int(positions.size), source.nodes
                )
        n_windows = int(np.ceil(phase.duration_s / ADMISSION_WINDOW_S))
        bounds = t0 + ADMISSION_WINDOW_S * np.arange(1, n_windows + 1)
        edges = np.unique(
            np.concatenate(
                [
                    [0, count],
                    np.flatnonzero(np.diff(assignment) != 0) + 1,
                    np.searchsorted(arrivals, bounds),
                ]
            ).astype(np.int64)
        )
        for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
            if budget is not None:
                b = min(b, a + budget)
                budget -= b - a
            if b > a:
                dataset = sources[int(assignment[a])].dataset
                blocks.append(Block(dataset, xs[a:b], ys[a:b], arrivals[a:b]))
        t0 += phase.duration_s
    trees = {
        s.dataset: random_attachment_tree(s.nodes, seed=s.tree_seed) for s in sources
    }
    return blocks, trees


def _oracle_answers(
    blocks: Sequence[Block], trees: Dict[str, np.ndarray]
) -> np.ndarray:
    """Expected answer of every query, in stream order (``BinaryLiftingLCA``).

    Skewed streams repeat a few hundred pairs millions of times, so the
    oracle runs once per distinct pair.
    """
    expected = np.empty(sum(b.xs.size for b in blocks), dtype=np.int64)
    offsets = np.cumsum([0] + [b.xs.size for b in blocks])
    for dataset, parents in trees.items():
        picks = [i for i, b in enumerate(blocks) if b.dataset == dataset]
        if not picks:
            continue
        n = int(parents.size)
        packed = np.concatenate([blocks[i].xs * n + blocks[i].ys for i in picks])
        pairs, inverse = np.unique(packed, return_inverse=True)
        answers = BinaryLiftingLCA(parents).query(pairs // n, pairs % n)[inverse]
        where = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in picks])
        expected[where] = answers
    return expected


class Serve(Workload):
    """A named scenario replayed through a fresh service or cluster per pass."""

    item = "answered query"
    fresh_target = True

    def __init__(
        self,
        name: str,
        why: str,
        *,
        scenario: str,
        scale: float,
        config: object,
        limit: Optional[int] = None,
        rowwise: bool = False,
        mix_stride: Optional[int] = None,
    ) -> None:
        self.name = name
        self.why = why
        self.scenario = scenario
        self.scale = scale
        self.config = config
        self.limit = limit
        self.rowwise = rowwise
        self.mix_stride = mix_stride

    def make_inputs(self, seed: int, smoke: bool) -> Inputs:
        t0 = _clock()
        scenario = make_scenario(
            self.scenario, scale=0.1 if smoke else self.scale, seed=seed
        )
        if self.mix_stride is not None:
            scenario = dataclasses.replace(scenario, mix_stride=self.mix_stride)
        limit = 2_000 if smoke else self.limit
        blocks, trees = generate_trace(scenario, limit=limit)
        gen_s = _clock() - t0
        queries = sum(b.xs.size for b in blocks)
        arrays = list(trees.values())
        for b in blocks:
            arrays += [b.xs, b.ys, b.at]
        expected = _oracle_answers(blocks, trees)
        if self.rowwise:
            # The per-query client hands over Python scalars; converting
            # them is the benchmark's work, not the service's.
            blocks = [
                Block(b.dataset, b.xs.tolist(), b.ys.tolist(), b.at.tolist())
                for b in blocks
            ]
        return Inputs(
            items=queries,
            sha256=_sha256(arrays),
            gen_s=gen_s,
            data={"blocks": blocks, "trees": trees, "expected": expected},
            offered_qps=scenario.expected_queries() / scenario.total_duration_s,
        )

    def make_target(self, inputs: Inputs) -> object:
        trees = inputs.data["trees"]
        if isinstance(self.config, ClusterConfig):
            cluster = ClusterService(config=self.config)
            for dataset, parents in trees.items():
                cluster.register_tree(dataset, parents, replicas=0)
                cluster.warm(dataset)
            return cluster
        service = LCAQueryService(config=self.config)
        for dataset, parents in trees.items():
            service.register_tree(dataset, parents)
            for backend in service.dispatcher.backends:
                service.registry.fetch(
                    dataset, "lca", backend.spec, sequential=backend.sequential
                )
        return service

    def run_pass(self, inputs: Inputs, target: object, marks: Marks) -> PassResult:
        blocks = inputs.data["blocks"]
        tickets: List[np.ndarray] = []
        admitted: List[int] = []
        block_s: List[float] = []
        shed = 0
        block_mark = marks.block
        t_begin = _clock()
        with marks.run:
            if self.rowwise:
                submit = target.submit
                for dataset, xs, ys, at in blocks:
                    t0 = _clock()
                    with block_mark:
                        issued = [
                            submit(dataset, x, y, at=t) for x, y, t in zip(xs, ys, at)
                        ]
                    block_s.append(_clock() - t0)
                    tickets.append(np.asarray(issued, dtype=np.int64))
                    admitted.append(len(issued))
            else:
                for dataset, xs, ys, at in blocks:
                    before = target.tickets_issued
                    t0 = _clock()
                    with block_mark:
                        try:
                            issued = target.submit_many(dataset, xs, ys, at=at)
                        except Overloaded as exc:
                            # A refused query is a failed query; the admitted
                            # prefix keeps its (consecutive) tickets.
                            shed += exc.shed
                            issued = np.arange(
                                before, before + exc.admitted, dtype=np.int64
                            )
                    block_s.append(_clock() - t0)
                    tickets.append(issued)
                    admitted.append(int(issued.size))
            target.drain()
            all_tickets = np.concatenate(tickets)
            answers = target.results(all_tickets)
            latencies = target.latencies(all_tickets)
        seconds = _clock() - t_begin
        outputs = {"answers": answers, "admitted": admitted, "shed": shed}
        counts = _serving_counts(target.stats(), latencies)
        return PassResult(seconds, outputs, counts, block_s=block_s)

    def check(self, inputs: Inputs, result: PassResult) -> int:
        out = result.outputs
        expected = inputs.data["expected"]
        if out["shed"]:
            sizes = [len(b.xs) for b in inputs.data["blocks"]]
            starts = np.cumsum([0] + sizes[:-1])
            expected = np.concatenate(
                [expected[s : s + k] for s, k in zip(starts, out["admitted"])]
            )
        answers = out["answers"]
        unanswered = int(inputs.items) - int(out["shed"]) - int(answers.size)
        wrong = int(np.count_nonzero(answers != expected[: answers.size]))
        return int(out["shed"]) + unanswered + wrong


def _serving_counts(stats: object, latencies: np.ndarray) -> Dict[str, float]:
    """Exact-repeat counters of one serving pass, from the stats snapshot."""
    workers = getattr(stats, "replicas", (stats,))
    answered = int(stats.queries_answered)
    kernel_queries = sum(int(w.kernel_queries) for w in workers)
    batches = int(stats.batches_flushed)
    lookups = int(stats.answer_cache_hits + stats.answer_cache_misses)
    p50, p99 = np.percentile(latencies, [50.0, 99.0]) if latencies.size else (0.0, 0.0)
    return {
        "scheduler.batches": batches,
        "scheduler.mean_batch": answered / batches if batches else 0.0,
        "cache.lookups": lookups,
        "cache.hit_rate": float(stats.answer_cache_hit_rate),
        # Answered per kernel-executed query; a pass answered wholly from the
        # cache divides by one instead of reporting infinity.
        "cache.dedup_factor": answered / max(kernel_queries, 1),
        "registry.hit_rate": float(stats.cache_hit_rate),
        "cluster.shed": int(getattr(stats, "queries_shed", 0)),
        "cluster.load_imbalance": float(getattr(stats, "load_imbalance", 1.0)),
        "modeled.qps": float(stats.throughput_qps),
        "modeled.p50_us": float(p50) * 1e6,
        "modeled.p99_us": float(p99) * 1e6,
        "modeled.device_s": float(stats.busy_time_s),
    }


_BATCHING = {"max_batch_size": 256, "max_wait_s": 200e-6}
_CACHED = ServiceConfig(dedup=True, answer_cache_bytes=4 << 20, **_BATCHING)

WORKLOADS: Tuple[Workload, ...] = (
    IndexBuild(),
    BulkQuery(),
    BridgesTV(),
    Serve(
        "serve-columnar",
        "Steady uniform traffic, one submit_many per 5 ms window, cache off: the "
        "baseline single-node path, where kernel launches on ~40-query batches "
        "dominate.",
        scenario="steady",
        scale=4.0,
        config=ServiceConfig(**_BATCHING),
    ),
    Serve(
        "serve-rowwise",
        "The same stream's first 60,000 queries through a Python loop of "
        "submit(): the same layers with per-query admission dominating.",
        scenario="steady",
        scale=4.0,
        config=ServiceConfig(**_BATCHING),
        limit=60_000,
        rowwise=True,
    ),
    Serve(
        "serve-cache-uniform",
        "Uniform keys with dedup and a 4 MiB answer cache: the cache miss path "
        "(hit rate ~0), where the cache can only cost.",
        scenario="steady",
        scale=4.0,
        config=_CACHED,
        limit=60_000,
    ),
    Serve(
        "serve-cache-skew",
        "Skewed repeated-query pools on two trees, same cache: the hit path "
        "(front-door memoization, kernel ~0) and the largest ticket count, so "
        "per-ticket memory shows in peak_rss_mb.",
        scenario="skewed-hotspot",
        scale=40.0,
        config=_CACHED,
        # Sessions of 2,048 queries, not the scenario's 32,768: with ~730
        # draws instead of ~46 the two trees' shares of the traffic (whose
        # queries cost differently) no longer swing 0.55-0.74 with the seed.
        mix_stride=2_048,
    ),
    Serve(
        "serve-cluster-flash",
        "Flash crowd on a 4-replica least-outstanding cluster with bounded "
        "admission: router, per-replica sub-blocks and thousands of small "
        "batches, so it is launch-bound.",
        scenario="flash-crowd",
        scale=1.0,
        config=ClusterConfig(
            n_replicas=4,
            router="least-outstanding",
            # Bounded, but above the flash phase's whole offered load: the
            # benchmark's contract wants workloads on which nothing fails.
            max_pending=262_144,
            **_BATCHING,
        ),
    ),
)
