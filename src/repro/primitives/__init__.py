"""Data-parallel building blocks (the moderngpu/Wei–JaJa substitute layer).

Everything an Euler-tour algorithm needs — scans, segmented reductions,
key sorting, list ranking, and range
min/max structures — implemented as instrumented NumPy kernels.  See
docs/architecture.md ("The layers"; "Preprocessing on the host" for how each
kernel is charged).
"""

from .elementwise import elementwise
from .listrank import (
    list_rank,
    order_from_ranks,
    sequential_rank,
    wei_jaja_rank,
    wyllie_rank,
)
from .reduce import count_by_key, reduce_array, segreduce_by_key
from .rmq import SegmentTreeRMQ, SparseTableRMQ, build_rmq
from .scan import (
    add_scan_offsets,
    charge_scan,
    exclusive_scan,
    inclusive_scan,
    segmented_inclusive_scan,
)
from .sort import argsort_values, sort_key_value, sort_pairs, sort_values

__all__ = [
    # scan
    "inclusive_scan",
    "exclusive_scan",
    "segmented_inclusive_scan",
    "add_scan_offsets",
    "charge_scan",
    # reduce
    "reduce_array",
    "segreduce_by_key",
    "count_by_key",
    # sort
    "sort_values",
    "argsort_values",
    "sort_pairs",
    "sort_key_value",
    # fused map
    "elementwise",
    # list ranking
    "list_rank",
    "wyllie_rank",
    "wei_jaja_rank",
    "sequential_rank",
    "order_from_ranks",
    # RMQ
    "SegmentTreeRMQ",
    "SparseTableRMQ",
    "build_rmq",
]
