"""Common result type for bridge-finding algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class BridgeResult:
    """Outcome of a bridge-finding run.

    Attributes
    ----------
    bridge_mask:
        Boolean array over the *undirected* edges of the input
        :class:`~repro.graphs.edgelist.EdgeList`: ``True`` where the edge is a
        bridge.
    algorithm:
        Human-readable name of the algorithm that produced the result.
    phase_times:
        Modeled per-phase times in seconds (e.g. ``{"Spanning tree": …,
        "Euler tour": …, "Detect bridges": …}``) captured from the execution
        context, matching the paper's Figure 11 breakdown.
    """

    bridge_mask: np.ndarray
    algorithm: str = ""
    phase_times: Dict[str, float] = field(default_factory=dict)

    @property
    def num_bridges(self) -> int:
        """Number of bridges found."""
        return int(np.count_nonzero(self.bridge_mask))

    @property
    def total_time_s(self) -> float:
        """Total modeled time across recorded phases."""
        return float(sum(self.phase_times.values()))

    def agrees_with(self, other: "BridgeResult") -> bool:
        """True when both results mark exactly the same edges as bridges."""
        return bool(np.array_equal(self.bridge_mask, other.bridge_mask))

    @property
    def nbytes(self) -> int:
        """Memory footprint of the result mask."""
        return int(self.bridge_mask.nbytes)
