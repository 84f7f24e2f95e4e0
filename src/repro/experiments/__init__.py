"""Experiment harness: dataset registry, per-figure runners and report formatting."""

from . import bridges_experiments, lca_experiments, service_experiments
from .datasets import (
    BREAKDOWN_DATASETS,
    DATASETS,
    KRONECKER_DATASETS,
    REALWORLD_DATASETS,
    DatasetSpec,
    get_dataset_spec,
    load_dataset,
)
from .report import format_rows, format_series, pivot_rows
from .service_experiments import (
    offered_load_sweep,
    replica_scaling_sweep,
    scenario_suite,
    serve_query_stream,
)
from .runner import (
    BRIDGE_ALGORITHMS,
    BREAKDOWN_BRIDGE_ALGORITHMS,
    FIGURE_BRIDGE_ALGORITHMS,
    LCA_ALGORITHMS,
    LCA_PRELIMINARY_ALGORITHMS,
    BridgeRunRecord,
    LCARunRecord,
    run_bridges,
    run_lca,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "KRONECKER_DATASETS",
    "REALWORLD_DATASETS",
    "BREAKDOWN_DATASETS",
    "get_dataset_spec",
    "load_dataset",
    "LCA_ALGORITHMS",
    "LCA_PRELIMINARY_ALGORITHMS",
    "BRIDGE_ALGORITHMS",
    "FIGURE_BRIDGE_ALGORITHMS",
    "BREAKDOWN_BRIDGE_ALGORITHMS",
    "LCARunRecord",
    "BridgeRunRecord",
    "run_lca",
    "run_bridges",
    "lca_experiments",
    "bridges_experiments",
    "service_experiments",
    "offered_load_sweep",
    "replica_scaling_sweep",
    "scenario_suite",
    "serve_query_stream",
    "format_rows",
    "format_series",
    "pivot_rows",
]
