"""Experiment runners for the bridge-finding evaluation (paper §4, Table 1, Figures 9–11).

| Function | Paper content |
|---|---|
| :func:`dataset_table`         | Table 1 (dataset statistics)                      |
| :func:`kronecker_comparison`  | Figure 9 (total time on Kronecker graphs)         |
| :func:`realworld_comparison`  | Figure 10 (total time on real-world graph stand-ins) |
| :func:`breakdown`             | Figure 11 (per-phase breakdown of the GPU algorithms) |

All runners operate on the synthetic stand-ins from
:mod:`repro.experiments.datasets`; rows include the paper's published values
next to the measured ones so a side-by-side write-up can be generated directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..device import PhaseBreakdown
from ..graphs.properties import characterize
from .datasets import (
    BREAKDOWN_DATASETS,
    KRONECKER_DATASETS,
    REALWORLD_DATASETS,
    get_dataset_spec,
    load_dataset,
)
from .runner import (
    BREAKDOWN_BRIDGE_ALGORITHMS,
    BRIDGE_ALGORITHMS,
    FIGURE_BRIDGE_ALGORITHMS,
    run_bridges,
)


def dataset_table(names: Optional[Sequence[str]] = None, *,
                  scale: Optional[float] = None) -> List[Dict[str, object]]:
    """Table 1: nodes, edges, bridges and diameter of every dataset's largest CC.

    Each row also carries the corresponding statistics published in the paper
    for the original graph the stand-in replaces.
    """
    names = list(KRONECKER_DATASETS + REALWORLD_DATASETS) if names is None else list(names)
    rows: List[Dict[str, object]] = []
    for name in names:
        spec = get_dataset_spec(name)
        graph = load_dataset(name, scale=scale)
        stats = characterize(graph, name, restrict_to_lcc=False)
        paper_nodes, paper_edges, paper_bridges, paper_diameter = spec.paper_stats
        rows.append({
            "dataset": name,
            "paper_graph": spec.paper_name,
            "nodes": stats.nodes,
            "edges": stats.edges,
            "bridges": stats.bridges,
            "diameter": stats.diameter,
            "paper_nodes": paper_nodes,
            "paper_edges": paper_edges,
            "paper_bridges": paper_bridges,
            "paper_diameter": paper_diameter,
        })
    return rows


def _comparison(names: Sequence[str], algorithms: Sequence[str], *,
                scale: Optional[float], check_agreement: bool
                ) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name in names:
        graph = load_dataset(name, scale=scale)
        for record in run_bridges(graph, dataset=name, algorithms=algorithms,
                                  check_agreement=check_agreement):
            rows.append(record.as_row())
    return rows


def kronecker_comparison(names: Optional[Sequence[str]] = None, *,
                         algorithms: Sequence[str] = tuple(FIGURE_BRIDGE_ALGORITHMS),
                         scale: Optional[float] = None,
                         check_agreement: bool = True) -> List[Dict[str, object]]:
    """Figure 9: total bridge-finding time on the Kronecker graph family."""
    names = list(KRONECKER_DATASETS) if names is None else list(names)
    return _comparison(names, algorithms, scale=scale, check_agreement=check_agreement)


def realworld_comparison(names: Optional[Sequence[str]] = None, *,
                         algorithms: Sequence[str] = tuple(FIGURE_BRIDGE_ALGORITHMS),
                         scale: Optional[float] = None,
                         check_agreement: bool = True) -> List[Dict[str, object]]:
    """Figure 10: total bridge-finding time on the real-world graph stand-ins."""
    names = list(REALWORLD_DATASETS) if names is None else list(names)
    return _comparison(names, algorithms, scale=scale, check_agreement=check_agreement)


def breakdown(names: Optional[Sequence[str]] = None, *,
              algorithms: Sequence[str] = tuple(BREAKDOWN_BRIDGE_ALGORITHMS),
              scale: Optional[float] = None,
              check_agreement: bool = True) -> List[PhaseBreakdown]:
    """Figure 11: per-phase running-time breakdown of the GPU bridge algorithms.

    Returns one :class:`~repro.device.PhaseBreakdown` per (dataset, algorithm)
    pair, labelled ``"<dataset> / <algorithm>"`` — the textual equivalent of
    the paper's stacked bars.
    """
    names = list(BREAKDOWN_DATASETS) if names is None else list(names)
    results: List[PhaseBreakdown] = []
    for name in names:
        graph = load_dataset(name, scale=scale)
        records = run_bridges(graph, dataset=name, algorithms=algorithms,
                              check_agreement=check_agreement)
        for record in records:
            results.append(PhaseBreakdown(
                label=f"{name} / {record.label}",
                phases=tuple(record.phase_times.items()),
            ))
    return results


def speedup_summary(rows: Sequence[Dict[str, object]],
                    baseline_label: str = "Single-core CPU DFS",
                    target_label: str = "GPU TV") -> List[Dict[str, object]]:
    """Summarize per-dataset speedups of one algorithm over another.

    Works on the row lists produced by the comparison runners; used to verify
    headline claims such as "TV shows 4–12× speedups over the single-core DFS
    implementation".
    """
    by_dataset: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_dataset.setdefault(str(row["dataset"]), {})[str(row["algorithm"])] = float(
            row["total_ms"]
        )
    out: List[Dict[str, object]] = []
    for dataset, times in by_dataset.items():
        if baseline_label in times and target_label in times and times[target_label] > 0:
            out.append({
                "dataset": dataset,
                "baseline": baseline_label,
                "target": target_label,
                "speedup": round(times[baseline_label] / times[target_label], 2),
            })
    return out


#: Registry key → label mapping re-exported for report formatting.
ALGORITHM_LABELS = {key: spec.label for key, spec in BRIDGE_ALGORITHMS.items()}
