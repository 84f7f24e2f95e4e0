"""repro — a Python reproduction of "Euler Meets GPU: Practical Graph Algorithms
with Theoretical Guarantees" (Polak, Siwiec, Stobierski; IPDPS 2021).

The package implements the Euler tour technique for bulk-parallel (GPU-style)
execution together with its two applications studied in the paper — lowest
common ancestors in trees and bridge finding in undirected graphs — plus every
substrate those algorithms need (parallel primitives, connectivity, BFS,
dataset generators) and an experiment harness that regenerates every table and
figure of the paper's evaluation on a simulated device (README.md's opening
paragraph says what is simulated; docs/architecture.md maps the layers).

Quickstart
----------
>>> import numpy as np
>>> from repro import graphs, lca, device
>>> parents = graphs.generators.random_attachment_tree(1000, seed=1)
>>> ctx = device.ExecutionContext(device.GTX980)
>>> algo = lca.InlabelLCA(parents, ctx=ctx)
>>> int(algo.query(np.array([5]), np.array([7]))[0]) < 1000
True

Serving queries
---------------
The :mod:`repro.service` subsystem turns the library into a query server:
registered trees get LRU-cached index artifacts, individually submitted
queries are coalesced into micro-batches on a deterministic simulated clock,
and each batch is dispatched to the backend (CPU or simulated GPU) the device
cost model prices cheapest for its size.

>>> from repro.service import LCAQueryService, ServiceConfig
>>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=256, max_wait_s=1e-3))
>>> svc.register_tree("demo", parents)
>>> tickets = [svc.submit("demo", 5, 7, at=i * 1e-6) for i in range(3)]
>>> svc.drain()
>>> svc.results(tickets).tolist() == [svc.result(tickets[0])] * 3
True
"""

from . import (
    boundary,
    bridges,
    control,
    device,
    errors,
    euler,
    experiments,
    graphs,
    lca,
    obs,
    primitives,
    service,
    workloads,
)
from .bridges import (
    BridgeResult,
    find_bridges_ck,
    find_bridges_dfs,
    find_bridges_hybrid,
    find_bridges_tarjan_vishkin,
)
from .device import (
    GTX980,
    XEON_X5650_MULTI,
    XEON_X5650_SINGLE,
    DeviceSpec,
    ExecutionContext,
)
from .errors import (
    ConfigurationError,
    DeviceError,
    InvalidGraphError,
    InvalidQueryError,
    NotATreeError,
    Overloaded,
    ReplicaDown,
    ReproError,
    ServiceError,
)
from .control import SLO, AutoscalePolicy, Controller
from .euler import EulerTour, TreeStats, build_euler_tour, compute_tree_stats
from .graphs import CSRGraph, EdgeList
from .lca import (
    InlabelLCA,
    NaiveGPULCA,
    RMQLCA,
    SequentialInlabelLCA,
    dedup_query_pairs,
)
from .obs import TraceRecorder, TraceTable
from .service import (
    AnswerCache,
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    ClusterStats,
    CostModelDispatcher,
    FaultEvent,
    FaultInjector,
    ForestStore,
    IndexRegistry,
    LCAQueryService,
    Router,
    ServiceConfig,
    ServiceStats,
)
from .workloads import (
    ChaosScenario,
    QueryPoolKeys,
    RetryPolicy,
    Scenario,
    ScenarioReport,
    make_chaos_scenario,
    make_scenario,
    replay,
    replay_chaos,
)

__version__ = "1.34.0"

__all__ = [
    "__version__",
    # subpackages
    "device",
    "primitives",
    "graphs",
    "euler",
    "lca",
    "bridges",
    "experiments",
    "service",
    "workloads",
    "obs",
    "control",
    "errors",
    "boundary",
    # most-used classes and functions
    "DeviceSpec",
    "ExecutionContext",
    "GTX980",
    "XEON_X5650_SINGLE",
    "XEON_X5650_MULTI",
    "EdgeList",
    "CSRGraph",
    "EulerTour",
    "TreeStats",
    "build_euler_tour",
    "compute_tree_stats",
    "InlabelLCA",
    "SequentialInlabelLCA",
    "NaiveGPULCA",
    "RMQLCA",
    "dedup_query_pairs",
    "BridgeResult",
    "find_bridges_tarjan_vishkin",
    "find_bridges_ck",
    "find_bridges_hybrid",
    "find_bridges_dfs",
    # query serving
    "LCAQueryService",
    "ForestStore",
    "IndexRegistry",
    "BatchPolicy",
    "CostModelDispatcher",
    "ServiceStats",
    "AnswerCache",
    # typed configuration surface
    "ServiceConfig",
    "ClusterConfig",
    # cluster serving
    "ClusterService",
    "ClusterStats",
    "Router",
    # SLO-aware self-tuning
    "SLO",
    "AutoscalePolicy",
    "Controller",
    # fault tolerance + elasticity
    "FaultEvent",
    "FaultInjector",
    # workload scenarios
    "Scenario",
    "ScenarioReport",
    "QueryPoolKeys",
    "RetryPolicy",
    "make_scenario",
    "replay",
    "ChaosScenario",
    "make_chaos_scenario",
    "replay_chaos",
    # observability
    "TraceRecorder",
    "TraceTable",
    # errors
    "ReproError",
    "InvalidGraphError",
    "NotATreeError",
    "InvalidQueryError",
    "DeviceError",
    "ConfigurationError",
    "ServiceError",
    "Overloaded",
    "ReplicaDown",
]
