"""Plain-text report formatting for experiment results.

The paper presents its results as log-log throughput plots and stacked bars;
this harness prints the same data as aligned text tables (one row per plotted
point) so the numbers can be diffed, regression-tested and pasted into a
write-up without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_rows", "pivot_rows", "format_series"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_rows(rows: Sequence[Mapping[str, object]],
                columns: Optional[Sequence[str]] = None,
                *, title: Optional[str] = None) -> str:
    """Render a list of dictionary rows as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    table: List[List[str]] = [list(map(str, columns))]
    for row in rows:
        table.append([_cell(row.get(col, "")) for col in columns])
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def pivot_rows(rows: Sequence[Mapping[str, object]], index: str, column: str,
               value: str) -> List[Dict[str, object]]:
    """Pivot long-format rows into wide format.

    Example: pivot Figure 9 rows with ``index="dataset"``,
    ``column="algorithm"``, ``value="total_ms"`` to get one row per dataset
    with one column per algorithm — the layout of the paper's figures.
    """
    order: List[object] = []
    grouped: Dict[object, Dict[str, object]] = {}
    for row in rows:
        key = row[index]
        if key not in grouped:
            grouped[key] = {index: key}
            order.append(key)
        grouped[key][str(row[column])] = row[value]
    return [grouped[key] for key in order]


def format_series(rows: Sequence[Mapping[str, object]], x: str, y: str, series: str,
                  *, title: Optional[str] = None) -> str:
    """Render long-format rows as one wide table with ``x`` rows and ``series`` columns."""
    wide = pivot_rows(rows, index=x, column=series, value=y)
    return format_rows(wide, title=title)
