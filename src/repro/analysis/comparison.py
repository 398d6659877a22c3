"""One (row label, seed) slice of a grid report: the paper's comparison.

§5.2 compares the four protocols on one identical workload — in a
grid, one row label and one seed.  :func:`comparison_slice` takes that
slice from a :class:`~repro.experiments.grid.GridReport`, whether its
runs were executed or loaded from a result store; the figures
(``repro.experiments.figures``), the markdown report and the claim
table (:mod:`repro.analysis.paper_claims`) read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .collectors import MetricSeries, OutcomeSummary

__all__ = ["ComparisonSlice", "comparison_slice"]


@dataclass(frozen=True)
class ComparisonSlice:
    """Every protocol's run of one (row label, seed) of a grid report."""

    row: str
    seed: int
    runs: dict[str, Any]
    """protocol → run, in the report's protocol order."""

    def summaries(self) -> dict[str, OutcomeSummary]:
        """Per-protocol whole-run aggregates, keyed by protocol name."""
        return {name: run.summary for name, run in self.runs.items()}

    def series(self) -> dict[str, MetricSeries]:
        """Per-protocol figure series, keyed by protocol name."""
        return {name: run.series for name, run in self.runs.items()}

    def bucket_edges(self) -> list[int]:
        """Common x-axis across protocols: the longest run's edges."""
        return max(
            (run.series.bucket_edges() for run in self.runs.values()),
            key=len,
            default=[],
        )


def comparison_slice(
    report: Any, row: str | None = None, seed: int | None = None
) -> ComparisonSlice:
    """The (``row``, ``seed``) slice of a grid report, live or restored.

    ``row`` (a row label) and ``seed`` default to the report's only
    one; left to default on a report with several, :class:`ValueError`
    names its rows and seeds.
    """
    rows, seeds = list(report.scenarios), list(report.seeds)
    if (row is None and len(rows) != 1) or (seed is None and len(seeds) != 1):
        raise ValueError(
            f"the grid report holds {len(rows)} row(s) x {len(seeds)} "
            f"seed(s) (rows: {', '.join(rows)}; seeds: "
            f"{', '.join(map(str, seeds))}), not one (row, seed) slice"
        )
    row = rows[0] if row is None else row
    seed = seeds[0] if seed is None else seed
    runs = {name: report.run_for(name, row, seed) for name in report.protocols}
    return ComparisonSlice(row, seed, runs)
