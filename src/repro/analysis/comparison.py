"""Cross-protocol comparisons and the paper's headline-claim checks.

§5.2 makes three quantitative claims; :func:`check_paper_claims` tests
a measured multi-protocol run against their *shape* (who wins, roughly
by how much — absolute numbers depend on the substrate):

1. Fig 2 — Locaware's mean download distance is below every baseline's
   (paper: ≈14% lower), and *improves* (decreases) as queries
   accumulate while the baselines stay roughly flat;
2. Fig 3 — index caching cuts search traffic versus flooding by an
   order of magnitude or more (paper: ≈98%);
3. Fig 4 — flooding has the best success rate; Locaware beats Dicas
   (paper: ≈+23%) and Dicas-Keys (paper: ≈+33%).

The measured run is a :class:`ComparisonSlice`: every protocol of one
grid report on one identical workload — one row label, one seed —
taken by :func:`comparison_slice` from a live
:class:`~repro.experiments.grid.GridReport` or a restored
:class:`~repro.analysis.persistence.LoadedGridReport` alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from .collectors import MetricSeries, OutcomeSummary

__all__ = [
    "ClaimCheck",
    "ComparisonSlice",
    "check_paper_claims",
    "comparison_slice",
    "relative_change",
]


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


@dataclass(frozen=True)
class ClaimCheck:
    """One verified (or refuted) paper claim."""

    claim: str
    holds: bool
    detail: str


def relative_change(new: float, base: float) -> float:
    """``(new - base) / base`` — negative means ``new`` is smaller."""
    if base == 0 or math.isnan(new) or math.isnan(base):
        return math.nan
    return (new - base) / base


def _trend(values: Sequence[float]) -> float:
    """Relative change between the first and second half of the series.

    Half-means are far more robust than single first/last buckets for
    the noisy per-bucket distances of a finite run.
    """
    clean = [v for v in values if not math.isnan(v)]
    if len(clean) < 2:
        return math.nan
    mid = len(clean) // 2
    first = sum(clean[:mid]) / mid
    second = sum(clean[mid:]) / (len(clean) - mid)
    if first == 0:
        return math.nan
    return (second - first) / first


def check_paper_claims(
    summaries: dict[str, OutcomeSummary],
    series: dict[str, MetricSeries],
) -> list[ClaimCheck]:
    """Check the §5.2 claims on measured results.

    ``summaries`` and ``series`` are keyed by protocol name
    (``flooding``, ``dicas``, ``dicas-keys``, ``locaware``).
    """
    required = {"flooding", "dicas", "dicas-keys", "locaware"}
    missing = required - set(summaries)
    if missing:
        raise ValueError(f"missing protocols for claim checks: {sorted(missing)}")
    checks: list[ClaimCheck] = []

    # -- Fig 2: download distance ---------------------------------------
    loc = summaries["locaware"].mean_download_distance_ms
    baselines = {
        name: summaries[name].mean_download_distance_ms
        for name in ("flooding", "dicas", "dicas-keys")
    }
    wins = all(loc < dist for dist in baselines.values() if not math.isnan(dist))
    reductions = {
        name: -relative_change(loc, dist) for name, dist in baselines.items()
    }
    checks.append(
        ClaimCheck(
            claim="Fig2: Locaware download distance below every baseline (~14% in paper)",
            holds=wins,
            detail=(
                f"locaware={loc:.1f}ms; reductions: "
                + ", ".join(f"{n}={format_pct(r)}" for n, r in reductions.items())
            ),
        )
    )
    loc_trend = _trend(series["locaware"].download_distance.windowed_means())
    checks.append(
        ClaimCheck(
            claim="Fig2: Locaware distance improves as queries accumulate",
            holds=not math.isnan(loc_trend) and loc_trend < 0,
            detail=f"first→last bucket change = {format_pct(loc_trend)}",
        )
    )

    # -- Fig 3: search traffic --------------------------------------------
    flood_msgs = summaries["flooding"].mean_messages
    for name in ("locaware", "dicas"):
        reduction = -relative_change(summaries[name].mean_messages, flood_msgs)
        checks.append(
            ClaimCheck(
                claim=f"Fig3: {name} cuts search traffic vs flooding (~98% in paper)",
                holds=not math.isnan(reduction) and reduction > 0.9,
                detail=(
                    f"{name}={summaries[name].mean_messages:.1f} msg/q vs "
                    f"flooding={flood_msgs:.1f} ({format_pct(reduction)} reduction)"
                ),
            )
        )

    # -- Fig 4: success rate ---------------------------------------------
    rates = {name: summaries[name].success_rate for name in required}
    checks.append(
        ClaimCheck(
            claim="Fig4: flooding has the best success rate",
            holds=all(
                rates["flooding"] >= rates[name]
                for name in ("locaware", "dicas", "dicas-keys")
            ),
            detail=", ".join(f"{n}={format_pct(r)}" for n, r in sorted(rates.items())),
        )
    )
    vs_dicas = relative_change(rates["locaware"], rates["dicas"])
    vs_keys = relative_change(rates["locaware"], rates["dicas-keys"])
    checks.append(
        ClaimCheck(
            claim="Fig4: Locaware beats Dicas on success rate (+23% in paper)",
            holds=not math.isnan(vs_dicas) and vs_dicas > 0,
            detail=f"locaware vs dicas = {format_pct(vs_dicas)}",
        )
    )
    checks.append(
        ClaimCheck(
            claim="Fig4: Locaware beats Dicas-Keys on success rate (+33% in paper)",
            holds=not math.isnan(vs_keys) and vs_keys > 0,
            detail=f"locaware vs dicas-keys = {format_pct(vs_keys)}",
        )
    )
    return checks


def format_pct(value: float) -> str:
    """Signed percent string (``'n/a'`` for NaN)."""
    if math.isnan(value):
        return "n/a"
    return f"{value * 100:+.1f}%"
