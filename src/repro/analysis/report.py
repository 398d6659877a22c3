"""Markdown report generation for experiment results.

Produces the paper-vs-measured sections of EXPERIMENTS.md directly
from a :class:`~repro.analysis.comparison.ComparisonSlice` (of a live
or a restored grid report), so the recorded numbers can never drift
from what the code measured.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from .comparison import ComparisonSlice
from .paper_claims import check_paper_claims

__all__ = ["markdown_table", "comparison_report", "claims_report"]


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-style markdown table."""
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return "n/a" if math.isnan(cell) else f"{cell:.2f}"
        return str(cell)

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


def _series_section(result: ComparisonSlice, title: str, extractor) -> str:
    edges = result.bucket_edges()
    headers = ["#queries"] + list(result.runs)
    rows: list[list[Any]] = []
    per_protocol = {
        name: extractor(run.series).windowed_means()
        for name, run in result.runs.items()
    }
    for i, edge in enumerate(edges):
        row: list[Any] = [edge]
        for name in result.runs:
            values = per_protocol[name]
            row.append(values[i] if i < len(values) else math.nan)
        rows.append(row)
    return f"#### {title}\n\n{markdown_table(headers, rows)}"


def comparison_report(
    result: ComparisonSlice, heading: str = "Comparison run"
) -> str:
    """The full markdown section for one comparison slice."""
    summaries = result.summaries()
    summary_rows = [
        [
            name,
            s.queries,
            s.success_rate,
            s.mean_messages,
            s.mean_download_distance_ms,
        ]
        for name, s in summaries.items()
    ]
    parts = [
        f"### {heading}",
        "",
        markdown_table(
            ["protocol", "queries", "success rate", "msgs/query", "distance (ms)"],
            summary_rows,
        ),
        "",
        _series_section(
            result, "Figure 2 series — download distance (ms)",
            lambda s: s.download_distance,
        ),
        "",
        _series_section(
            result, "Figure 3 series — messages per query",
            lambda s: s.search_traffic,
        ),
        "",
        _series_section(
            result, "Figure 4 series — success rate",
            lambda s: s.success_rate,
        ),
    ]
    return "\n".join(parts)


def claims_report(result: ComparisonSlice) -> str:
    """Markdown table of the §5.2 claim checks for a comparison slice."""
    rows = [
        [check.claim, "PASS" if check.holds else "FAIL", check.detail]
        for check in check_paper_claims(result)
    ]
    return markdown_table(["claim", "status", "measured"], rows)
