"""The paper's §5.2 claims, declared once, and the one referee.

:data:`PAPER_CLAIMS` is the one table of what Figures 2-4 must show on
a measured :class:`~repro.analysis.comparison.ComparisonSlice` — who
wins, and roughly by how much; absolute numbers depend on the
substrate, so a row tests a *shape* and carries the paper's magnitude
in its statement:

1. Fig 2 — Locaware's mean download distance is below every
   baseline's (paper: ≈14% lower), stays below flooding's in both
   halves of the run, and *improves* (decreases) as queries accumulate;
2. Fig 3 — each index-caching protocol cuts search traffic versus
   flooding by more than 90% (paper: ≈98%), and the three sit within
   3× of each other (the paper plots them nearly on top of each other);
3. Fig 4 — flooding has the strictly best success rate; Locaware
   beats Dicas (paper: ≈+23%) and Dicas-Keys (paper: ≈+33%).

A NaN (a protocol with no downloads, a series too short to split)
refutes the row that needs it.

:func:`check_paper_claims` checks the table on one slice;
:func:`claim_verdicts` judges each row over seeds — it **holds** on
every seed, **fails** on every seed, or is **unresolved** (not a pass);
:func:`check_report` does that for every row label of a grid report;
:func:`render_claim_lines` prints verdicts.  ``repro figures`` and
``repro grid check`` print :func:`check_report`, ``repro ablation``
judges its own table with :func:`claim_verdicts`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .collectors import MetricSeries, OutcomeSummary
from .comparison import ComparisonSlice, comparison_slice
from .tables import format_percent

__all__ = [
    "PAPER_CLAIMS",
    "ClaimCheck",
    "ClaimVerdict",
    "PaperClaim",
    "check_paper_claims",
    "check_report",
    "claim_verdicts",
    "relative_change",
    "render_claim_lines",
]

_PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
_BASELINES = ("flooding", "dicas", "dicas-keys")
_CACHING = ("dicas", "dicas-keys", "locaware")

Summaries = dict[str, OutcomeSummary]
Series = dict[str, MetricSeries]


@dataclass(frozen=True)
class ClaimCheck:
    """One verified (or refuted) paper claim."""

    claim: str
    holds: bool
    detail: str
    #: The row's headline number (what a verdict spreads over seeds).
    #: It may be NaN, so it takes no part in equality.
    value: float = field(compare=False)


@dataclass(frozen=True)
class PaperClaim:
    """One row of :data:`PAPER_CLAIMS`."""

    figure: str
    """The figure it belongs to (``Figure.EXPERIMENT_ID``)."""
    text: str
    test: Callable[[Summaries, Series], tuple[bool, str, float]]
    """``(summaries, series)`` → ``(holds, detail, headline value)``."""

    @property
    def statement(self) -> str:
        """The printed claim: ``text`` after the figure (``Fig2: …``)."""
        return f"{self.figure.capitalize()}: {self.text}"


def relative_change(new: float, base: float) -> float:
    """``(new - base) / base`` — negative means ``new`` is smaller."""
    if base == 0 or math.isnan(new) or math.isnan(base):
        return math.nan
    return (new - base) / base


def _pct(value: float) -> str:
    """Signed percent string (``'n/a'`` for NaN)."""
    if math.isnan(value):
        return "n/a"
    return f"{value * 100:+.1f}%"


def _halves(values: Sequence[float]) -> tuple[float, float]:
    """Means of the first and second half of the series' non-NaN
    buckets (NaN, NaN with fewer than two).

    Half-means are far more robust than single first/last buckets for
    the noisy per-bucket distances of a finite run.
    """
    clean = [v for v in values if not math.isnan(v)]
    if len(clean) < 2:
        return math.nan, math.nan
    mid = len(clean) // 2
    return sum(clean[:mid]) / mid, sum(clean[mid:]) / (len(clean) - mid)


def _distance_halves(series: MetricSeries) -> tuple[float, float]:
    return _halves(series.download_distance.windowed_means())


def _distance_below_baselines(summaries: Summaries, series: Series):
    loc = summaries["locaware"].mean_download_distance_ms
    baselines = {n: summaries[n].mean_download_distance_ms for n in _BASELINES}
    reductions = {n: -relative_change(loc, d) for n, d in baselines.items()}
    return (
        all(loc < d for d in baselines.values()),
        f"locaware={loc:.1f}ms; reductions: "
        + ", ".join(f"{n}={_pct(r)}" for n, r in reductions.items()),
        reductions["flooding"],
    )


def _distance_below_flooding_throughout(summaries: Summaries, series: Series):
    (loc1, loc2), (flood1, flood2) = (
        _distance_halves(series[n]) for n in ("locaware", "flooding")
    )
    first = -relative_change(loc1, flood1)
    second = -relative_change(loc2, flood2)
    return (
        first > 0 and second > 0,
        f"reduction vs flooding: first half={_pct(first)}, "
        f"second half={_pct(second)}",
        math.nan if math.isnan(first + second) else min(first, second),
    )


def _distance_improves(summaries: Summaries, series: Series):
    first, second = _distance_halves(series["locaware"])
    trend = relative_change(second, first)
    return (
        not math.isnan(trend) and trend < 0,
        f"first→last bucket change = {_pct(trend)}",
        trend,
    )


def _cuts_traffic(name: str, summaries: Summaries, series: Series, by: float):
    flood = summaries["flooding"].mean_messages
    msgs = summaries[name].mean_messages
    reduction = -relative_change(msgs, flood)
    return (
        not math.isnan(reduction) and reduction > by,
        f"{name}={msgs:.1f} msg/q vs flooding={flood:.1f} "
        f"({_pct(reduction)} reduction)",
        reduction,
    )


def _caching_traffic_close(summaries: Summaries, series: Series, within: float):
    msgs = {n: summaries[n].mean_messages for n in _CACHING}
    low, high = min(msgs.values()), max(msgs.values())
    ratio = high / low if low > 0 else math.nan
    return (
        not math.isnan(ratio) and ratio < within,
        ("n/a" if math.isnan(ratio) else f"max/min = {ratio:.2f}x") + " ("
        + ", ".join(f"{n}={m:.1f}" for n, m in msgs.items())
        + " msg/q)",
        ratio,
    )


def _flooding_best(summaries: Summaries, series: Series):
    rates = {n: summaries[n].success_rate for n in _PROTOCOLS}
    return (
        all(rates["flooding"] > rates[n] for n in _CACHING),
        ", ".join(f"{n}={_pct(r)}" for n, r in sorted(rates.items())),
        math.nan,
    )


def _locaware_beats(name: str, summaries: Summaries, series: Series):
    gain = relative_change(
        summaries["locaware"].success_rate, summaries[name].success_rate
    )
    return (
        not math.isnan(gain) and gain > 0,
        f"locaware vs {name} = {_pct(gain)}",
        gain,
    )


PAPER_CLAIMS: tuple[PaperClaim, ...] = (
    PaperClaim(
        "fig2",
        "Locaware download distance below every baseline (~14% in paper)",
        _distance_below_baselines,
    ),
    PaperClaim(
        "fig2",
        "Locaware download distance below flooding in both halves of the run",
        _distance_below_flooding_throughout,
    ),
    PaperClaim(
        "fig2",
        "Locaware distance improves as queries accumulate",
        _distance_improves,
    ),
    PaperClaim(
        "fig3",
        "locaware cuts search traffic vs flooding (~98% in paper)",
        partial(_cuts_traffic, "locaware", by=0.9),
    ),
    PaperClaim(
        "fig3",
        "dicas cuts search traffic vs flooding (~98% in paper)",
        partial(_cuts_traffic, "dicas", by=0.9),
    ),
    PaperClaim(
        "fig3",
        "dicas-keys cuts search traffic vs flooding (~98% in paper)",
        partial(_cuts_traffic, "dicas-keys", by=0.9),
    ),
    PaperClaim(
        "fig3",
        "the three caching protocols' traffic is within 3x of each other",
        partial(_caching_traffic_close, within=3.0),
    ),
    PaperClaim(
        "fig4",
        "flooding has the best success rate",
        _flooding_best,
    ),
    PaperClaim(
        "fig4",
        "Locaware beats Dicas on success rate (+23% in paper)",
        partial(_locaware_beats, "dicas"),
    ),
    PaperClaim(
        "fig4",
        "Locaware beats Dicas-Keys on success rate (+33% in paper)",
        partial(_locaware_beats, "dicas-keys"),
    ),
)


def check_paper_claims(
    result: ComparisonSlice, figure: str | None = None
) -> list[ClaimCheck]:
    """Check :data:`PAPER_CLAIMS` (only ``figure``'s rows, if given) on
    one comparison slice, in table order.

    The slice must hold the paper's four protocols; :class:`ValueError`
    names any that are missing.
    """
    summaries, series = result.summaries(), result.series()
    missing = set(_PROTOCOLS) - set(summaries)
    if missing:
        raise ValueError(f"missing protocols for claim checks: {sorted(missing)}")
    return [
        ClaimCheck(claim.statement, *claim.test(summaries, series))
        for claim in PAPER_CLAIMS
        if figure is None or claim.figure == figure
    ]


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim row judged over the seeds of one grid row label."""

    claim: str
    checks: tuple[tuple[int, ClaimCheck], ...]
    """``(seed, check)`` per seed, in seed order."""

    @property
    def held(self) -> int:
        """k of k/n: on how many seeds the row held (0: it fails)."""
        return sum(check.holds for _seed, check in self.checks)

    @property
    def holds(self) -> bool:
        """Held on every seed; anything between 0 and n is unresolved."""
        return self.held == len(self.checks)

    @property
    def failed_seeds(self) -> list[int]:
        """The seeds on which the row failed."""
        return [seed for seed, check in self.checks if not check.holds]

    @property
    def spread(self) -> tuple[float, float, float] | None:
        """min/mean/max of the finite headline values (``None`` if none)."""
        values = [c.value for _seed, c in self.checks if math.isfinite(c.value)]
        if not values:
            return None
        return min(values), sum(values) / len(values), max(values)


def claim_verdicts(
    per_seed: Mapping[int, Sequence[ClaimCheck]],
) -> list[ClaimVerdict]:
    """Judge every row over the seeds of one grid row label, from each
    seed's checks of one table (in table order)."""
    if not per_seed:
        raise ValueError("at least one seed is required")
    rows = zip(*per_seed.values(), strict=True)
    return [
        ClaimVerdict(checks[0].claim, tuple(zip(per_seed, checks, strict=True)))
        for checks in rows
    ]


def check_report(report: Any) -> dict[str, list[ClaimVerdict]]:
    """:data:`PAPER_CLAIMS`' verdicts per row label of a live or
    restored grid report: each label's seeds are judged together, so an
    override axis (``--set num_peers=600,1000``) gets verdicts per value."""
    return {
        row: claim_verdicts(
            {
                seed: check_paper_claims(comparison_slice(report, row, seed))
                for seed in report.seeds
            }
        )
        for row in report.scenarios
    }


def _verdict_lines(verdict: ClaimVerdict) -> tuple[str, str]:
    """The verdict line and its detail."""
    if len(verdict.checks) == 1:
        ((_seed, check),) = verdict.checks
        return f"[{'PASS' if check.holds else 'FAIL'}] {check.claim}", check.detail
    tag = "PASS" if verdict.holds else "FAIL" if verdict.held == 0 else "UNRESOLVED"
    failed = ", ".join(map(str, verdict.failed_seeds))
    detail = f"failed on seed(s) {failed}" if failed else "no seed failed"
    if verdict.spread is not None:
        spread = " / ".join(map(format_percent, verdict.spread))
        detail = f"min/mean/max {spread}; {detail}"
    counts = f"({verdict.held}/{len(verdict.checks)} seeds)"
    return f"[{tag}] {verdict.claim}  {counts}", detail


def render_claim_lines(verdicts: Sequence[ClaimVerdict]) -> str:
    """A verdict line and a detail line per row, then the tally line.

    One seed prints ``[PASS]`` / ``[FAIL]`` and the check's detail; n
    seeds add ``[UNRESOLVED]`` and ``(k/n seeds)``, and the detail is the
    headline value's min/mean/max (as percentages) and the failing seeds.
    """
    lines = []
    for verdict in verdicts:
        heading, detail = _verdict_lines(verdict)
        lines += [heading, f"       {detail}"]
    held = sum(verdict.holds for verdict in verdicts)
    lines.append(f"\n{held}/{len(verdicts)} paper claims hold")
    seeds = len(verdicts[0].checks) if verdicts else 1
    if seeds > 1:
        failed = sum(verdict.held == 0 for verdict in verdicts)
        lines[-1] += (
            f" on all {seeds} seeds; {failed} fail on all, "
            f"{len(verdicts) - held - failed} unresolved"
        )
    return "\n".join(lines)
