"""Measurement and reporting: outcome series, tables, claim checks."""

from .ascii_chart import render_chart, render_figure_chart
from .collectors import (
    MetricSeries,
    OutcomeSummary,
    Series,
    collect_series,
    summarize_outcomes,
)
from .comparison import ComparisonSlice, comparison_slice
from .paper_claims import (
    PAPER_CLAIMS,
    Claim,
    ClaimCheck,
    ClaimVerdict,
    ResultTable,
    check_claims,
    check_paper_claims,
    check_report,
    claim_verdicts,
    relative_change,
    render_claim_lines,
)
from .persistence import (
    grid_cell_to_document,
    load_grid_cell_document,
    load_run_document,
    read_grid_cell,
    run_to_document,
)
from .sweep_report import (
    SweepAggregator,
    SweepRow,
    aggregate_sweep,
    render_sweep_report,
    render_sweep_rows,
)
from .tables import format_percent, format_series_table, format_table
from .traces import (
    TraceParseError,
    TraceSummary,
    read_trace,
    render_query_timeline,
    render_trace_summary,
    summarize_trace,
)

__all__ = [
    "Series",
    "MetricSeries",
    "OutcomeSummary",
    "collect_series",
    "summarize_outcomes",
    "PAPER_CLAIMS",
    "Claim",
    "ClaimCheck",
    "ClaimVerdict",
    "ResultTable",
    "check_claims",
    "check_paper_claims",
    "claim_verdicts",
    "check_report",
    "render_claim_lines",
    "ComparisonSlice",
    "comparison_slice",
    "relative_change",
    "format_table",
    "format_series_table",
    "format_percent",
    "run_to_document",
    "load_run_document",
    "grid_cell_to_document",
    "load_grid_cell_document",
    "read_grid_cell",
    "render_chart",
    "render_figure_chart",
    "SweepRow",
    "SweepAggregator",
    "aggregate_sweep",
    "render_sweep_report",
    "render_sweep_rows",
    "TraceParseError",
    "TraceSummary",
    "read_trace",
    "summarize_trace",
    "render_trace_summary",
    "render_query_timeline",
]
