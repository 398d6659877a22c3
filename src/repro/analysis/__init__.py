"""Measurement and reporting: outcome series, tables, claim checks."""

from .ascii_chart import render_chart, render_figure_chart
from .collectors import (
    MetricSeries,
    OutcomeSummary,
    collect_series,
    summarize_outcomes,
)
from .comparison import ComparisonSlice, comparison_slice
from .distributions import (
    DistanceDistribution,
    cdf_points,
    distance_distribution,
    percentile,
)
from .paper_claims import (
    PAPER_CLAIMS,
    ClaimCheck,
    PaperClaim,
    check_paper_claims,
    relative_change,
    render_claim_lines,
)
from .persistence import (
    LoadedGridReport,
    grid_cell_to_document,
    grid_report_to_document,
    load_grid_cell_document,
    load_grid_report_document,
    load_run_document,
    run_to_document,
    save_grid_report,
)
from .report import claims_report, comparison_report, markdown_table
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
    "MetricSeries",
    "OutcomeSummary",
    "collect_series",
    "summarize_outcomes",
    "PAPER_CLAIMS",
    "PaperClaim",
    "ClaimCheck",
    "check_paper_claims",
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
    "grid_report_to_document",
    "save_grid_report",
    "load_grid_report_document",
    "LoadedGridReport",
    "markdown_table",
    "comparison_report",
    "claims_report",
    "percentile",
    "DistanceDistribution",
    "distance_distribution",
    "cdf_points",
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
