"""Figures 2-4 (§5.2): one figure description, three instances.

Each figure plots one :class:`~repro.analysis.collectors.MetricSeries`
field per protocol against the query count, read off one
:class:`~repro.analysis.comparison.ComparisonSlice`.  Callers treat a
figure as a namespace (``from repro.experiments import
fig2_download_distance as fig2``; ``fig2.TITLE``,
``fig2.render(result)``), hence the constant-style field names.  The
shapes the paper reports for a figure are its rows of
:data:`~repro.analysis.paper_claims.PAPER_CLAIMS` (keyed by
``EXPERIMENT_ID``), which ``benchmarks/test_figures.py`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.collectors import MetricSeries
from ..analysis.comparison import ComparisonSlice
from ..analysis.tables import format_series_table
from ..sim.metrics import BucketedSeries

__all__ = [
    "FIGURES",
    "Figure",
    "fig2_download_distance",
    "fig3_search_traffic",
    "fig4_success_rate",
]


@dataclass(frozen=True)
class Figure:
    """One §5.2 figure: id, title, y-label and the series field it reads."""

    EXPERIMENT_ID: str
    TITLE: str
    Y_LABEL: str
    series_field: str

    def extract(self, series: MetricSeries) -> BucketedSeries:
        """The figure's y-series for one protocol run."""
        return getattr(series, self.series_field)

    def figure_series(self, result: ComparisonSlice) -> dict[str, list[float]]:
        """Windowed per-bucket means for every protocol (the plotted lines).

        Windowed (not cumulative) means expose the *trend*: Locaware's
        improvement with accumulating queries is §5.2's key observation.
        """
        return {
            name: self.extract(run.series).windowed_means()
            for name, run in result.runs.items()
        }

    def render(self, result: ComparisonSlice) -> str:
        """The figure as an ASCII table (x = #queries)."""
        return format_series_table(
            x_label="#queries",
            x_values=result.bucket_edges(),
            series=self.figure_series(result),
            title=f"{self.TITLE} [{self.Y_LABEL}]",
        )


fig2_download_distance = Figure(
    "fig2", "Figure 2: Comparison of download distance",
    "mean download distance (ms RTT)", "download_distance",
)
fig3_search_traffic = Figure(
    "fig3", "Figure 3: Comparison of search traffic",
    "mean messages per query", "search_traffic",
)
fig4_success_rate = Figure(
    "fig4", "Figure 4: Comparison of success rate",
    "success rate (fraction of submitted queries satisfied)", "success_rate",
)

#: The three figures, in the paper's order.
FIGURES = (fig2_download_distance, fig3_search_traffic, fig4_success_rate)
