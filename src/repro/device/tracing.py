"""Reporting helpers built on top of :class:`~repro.device.context.ExecutionContext`.

These utilities turn phase breakdowns into the tabular summaries the
experiment harness prints — most importantly the stacked
per-phase breakdown of Figure 11 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class PhaseBreakdown:
    """A named algorithm run broken down into per-phase modeled times."""

    label: str
    phases: Tuple[Tuple[str, float], ...]

    @property
    def total(self) -> float:
        """Total modeled time across all phases."""
        return sum(t for _, t in self.phases)

    def as_dict(self) -> Dict[str, float]:
        """Phase name → time mapping (insertion ordered)."""
        return dict(self.phases)


def format_breakdown_table(
    breakdowns: Sequence[PhaseBreakdown],
    *,
    time_unit: str = "ms",
) -> str:
    """Render a list of per-phase breakdowns as an aligned text table.

    One row per run (``label``), one column per phase encountered anywhere in
    the input (in first-appearance order), plus a total column.  This mirrors
    the stacked-bar layout of the paper's Figure 11 in textual form.
    """
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}.get(time_unit)
    if scale is None:
        raise ValueError(f"unsupported time unit {time_unit!r}")

    phase_names: List[str] = []
    for bd in breakdowns:
        for name, _ in bd.phases:
            if name not in phase_names:
                phase_names.append(name)

    header = ["run"] + [f"{p} [{time_unit}]" for p in phase_names] + [f"total [{time_unit}]"]
    rows: List[List[str]] = [header]
    for bd in breakdowns:
        lookup = bd.as_dict()
        row = [bd.label]
        for p in phase_names:
            value = lookup.get(p, 0.0) * scale
            row.append(f"{value:.2f}" if p in lookup else "-")
        row.append(f"{bd.total * scale:.2f}")
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row))
        lines.append(line.rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
