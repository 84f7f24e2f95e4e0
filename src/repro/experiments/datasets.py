"""Dataset registry for the bridge-finding experiments (paper §4.2, Table 1).

The paper evaluates on 16 graphs in three families: Graph500 Kronecker graphs,
real-world web/social/citation/collaboration networks, and DIMACS road
networks.  None of the original downloads are available offline, so every
dataset is replaced by a synthetic stand-in from the same structural family
(README.md, "Tests and benchmarks", states the scale), scaled down by roughly
32–64× so the pure-Python simulation stays fast.  The registry records, for
every stand-in, the original graph it replaces and the paper's published
statistics, so Table 1 can be regenerated side by side with the original
numbers.

All generators are deterministic given the registry's fixed seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..graphs.components import largest_connected_component
from ..graphs.edgelist import EdgeList
from ..graphs.generators import (
    collaboration_graph,
    citation_graph,
    rmat_graph,
    road_graph_with_target_size,
    social_graph,
    web_graph,
)

#: Environment variable that scales every dataset's node count (default 1.0).
SCALE_ENV_VAR = "REPRO_DATASET_SCALE"


@dataclass(frozen=True)
class DatasetSpec:
    """A registered bridge-finding dataset stand-in.

    Attributes
    ----------
    name:
        Registry key (also used in benchmark output).
    category:
        ``"kronecker"``, ``"social"`` or ``"road"``.
    paper_name:
        Name of the original graph in the paper's Table 1.
    paper_stats:
        ``(nodes, edges, bridges, diameter)`` as published in Table 1.
    builder:
        Zero-argument callable producing the synthetic stand-in
        (before largest-connected-component extraction).
    """

    name: str
    category: str
    paper_name: str
    paper_stats: Tuple[int, int, int, int]
    builder: Callable[[float], EdgeList]


def _scale() -> float:
    value = os.environ.get(SCALE_ENV_VAR, "1.0")
    try:
        scale = float(value)
    except ValueError as exc:
        raise ConfigurationError(f"{SCALE_ENV_VAR} must be a float, got {value!r}") from exc
    if scale <= 0:
        raise ConfigurationError(f"{SCALE_ENV_VAR} must be positive")
    return scale


def _kron_builder(scale_exp: int, edge_factor: int, seed: int):
    def build(scale: float) -> EdgeList:
        # Scaling a Kronecker graph means shifting its scale exponent; only
        # whole shifts are meaningful, so the multiplier is applied to the
        # edge factor below 2x.
        ef = max(2, int(round(edge_factor * min(scale, 1.0))))
        exp = scale_exp
        while scale >= 2.0 and exp < 24:
            exp += 1
            scale /= 2.0
        return rmat_graph(exp, edge_factor=ef, seed=seed)

    return build


def _social_builder(kind: Callable[..., EdgeList], n: int, seed: int):
    def build(scale: float) -> EdgeList:
        return kind(max(64, int(n * scale)), seed=seed)

    return build


def _road_builder(n: int, removal: float, subdivide: float, seed: int,
                  deadend: float = 0.5):
    def build(scale: float) -> EdgeList:
        graph, _ = road_graph_with_target_size(
            max(64, int(n * scale)), removal_fraction=removal,
            subdivide_fraction=subdivide, deadend_fraction=deadend, seed=seed,
        )
        return graph

    return build


#: The 16 datasets of the paper's Table 1, in the paper's order.
DATASETS: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    DATASETS[spec.name] = spec


# --- Kronecker family (paper: kron_g500-logn16 … logn21) --------------------
for _logn, _paper in [
    (10, ("kron_g500-logn16", (55_000, 4_900_000, 12_000, 6))),
    (11, ("kron_g500-logn17", (107_000, 10_000_000, 26_000, 6))),
    (12, ("kron_g500-logn18", (210_000, 21_000_000, 54_000, 6))),
    (13, ("kron_g500-logn19", (409_000, 43_000_000, 113_000, 7))),
    (14, ("kron_g500-logn20", (795_000, 89_000_000, 233_000, 7))),
    (15, ("kron_g500-logn21", (1_500_000, 182_000_000, 477_000, 7))),
]:
    _register(
        DatasetSpec(
            name=f"kron-s{_logn}",
            category="kronecker",
            paper_name=_paper[0],
            paper_stats=_paper[1],
            builder=_kron_builder(_logn, edge_factor=32, seed=100 + _logn),
        )
    )

# --- Web / social / citation / collaboration family -------------------------
_register(DatasetSpec(
    name="web-wikipedia-like", category="social", paper_name="web-wikipedia2009",
    paper_stats=(1_800_000, 9_000_000, 1_400_000, 323),
    builder=_social_builder(web_graph, 56_000, seed=201),
))
_register(DatasetSpec(
    name="cit-patents-like", category="social", paper_name="cit-Patents",
    paper_stats=(3_700_000, 33_000_000, 1_300_000, 26),
    builder=_social_builder(citation_graph, 80_000, seed=202),
))
_register(DatasetSpec(
    name="socfb-like", category="social", paper_name="socfb-A-anon",
    paper_stats=(3_000_000, 47_000_000, 3_300_000, 12),
    builder=_social_builder(social_graph, 48_000, seed=203),
))
_register(DatasetSpec(
    name="soc-livejournal-like", category="social", paper_name="soc-LiveJournal1",
    paper_stats=(4_800_000, 85_000_000, 2_200_000, 20),
    builder=_social_builder(social_graph, 75_000, seed=204),
))
_register(DatasetSpec(
    name="ca-hollywood-like", category="social", paper_name="ca-hollywood-2009",
    paper_stats=(1_000_000, 112_000_000, 23_000, 12),
    builder=_social_builder(collaboration_graph, 32_000, seed=205),
))

# --- Road family (paper: DIMACS USA road graphs + GB OSM) -------------------
_register(DatasetSpec(
    name="road-east-like", category="road", paper_name="USA-road-d.E",
    paper_stats=(3_500_000, 8_700_000, 2_200_000, 4_000),
    builder=_road_builder(64_000, removal=0.45, subdivide=0.10, seed=301),
))
_register(DatasetSpec(
    name="road-west-like", category="road", paper_name="USA-road-d.W",
    paper_stats=(6_200_000, 15_000_000, 3_800_000, 4_000),
    builder=_road_builder(96_000, removal=0.45, subdivide=0.10, seed=302),
))
_register(DatasetSpec(
    name="road-gb-like", category="road", paper_name="great-britain-osm",
    paper_stats=(7_700_000, 16_000_000, 4_800_000, 9_000),
    builder=_road_builder(120_000, removal=0.55, subdivide=0.15, seed=303),
))
_register(DatasetSpec(
    name="road-ctr-like", category="road", paper_name="USA-road-d.CTR",
    paper_stats=(14_000_000, 34_000_000, 8_500_000, 6_000),
    builder=_road_builder(160_000, removal=0.45, subdivide=0.10, seed=304),
))
_register(DatasetSpec(
    name="road-usa-like", category="road", paper_name="USA-road-d.USA",
    paper_stats=(23_000_000, 58_000_000, 14_000_000, 9_000),
    builder=_road_builder(220_000, removal=0.45, subdivide=0.10, seed=305),
))


#: Subsets matching the paper's figures.
KRONECKER_DATASETS: List[str] = [name for name, s in DATASETS.items() if s.category == "kronecker"]
REALWORLD_DATASETS: List[str] = [name for name, s in DATASETS.items()
                                 if s.category in ("social", "road")]
#: The subset used in the Figure 11 breakdown (the paper drops the smallest kron graphs).
BREAKDOWN_DATASETS: List[str] = KRONECKER_DATASETS[3:] + REALWORLD_DATASETS


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return DATASETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None


def load_dataset(name: str, *, scale: Optional[float] = None,
                 largest_cc: bool = True) -> EdgeList:
    """Generate a dataset stand-in (largest connected component by default).

    ``scale`` multiplies the default node count; when omitted it is read from
    the ``REPRO_DATASET_SCALE`` environment variable (default 1.0), so the
    whole benchmark suite can be scaled up or down without code changes.
    """
    spec = get_dataset_spec(name)
    effective_scale = _scale() if scale is None else scale
    if effective_scale <= 0:
        raise ConfigurationError("scale must be positive")
    graph = spec.builder(effective_scale)
    if largest_cc:
        graph, _ = largest_connected_component(graph)
    return graph
