"""ASCII rendering of figure series and summary tables.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["format_table", "format_series_table", "format_percent"]


def format_percent(value: float, digits: int = 1) -> str:
    """``0.8215`` → ``'82.2%'`` (``'n/a'`` for NaN)."""
    if math.isnan(value):
        return "n/a"
    return f"{value * 100:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width table with a separator under the header."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {columns}"
            )
    widths = [len(str(h)) for h in headers]
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                text = "n/a" if math.isnan(cell) else f"{cell:.2f}"
            else:
                text = str(cell)
            widths[i] = max(widths[i], len(text))
            rendered.append(text)
        rendered_rows.append(rendered)
    lines: list[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).rjust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(rendered)))
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: Sequence[int],
    series: dict[str, Sequence[float]],
    title: str | None = None,
) -> str:
    """Render one paper figure: x-axis column + one column per protocol.

    ``series`` maps protocol name → y-values aligned with ``x_values``.
    """
    headers = [x_label] + list(series)
    rows: list[list[object]] = []
    for i, x in enumerate(x_values):
        row: list[object] = [x]
        for name in series:
            values = series[name]
            row.append(values[i] if i < len(values) else math.nan)
        rows.append(row)
    return format_table(headers, rows, title=title)
