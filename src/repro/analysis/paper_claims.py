"""The claim tables' one row type, the paper's §5.2 rows, and the one referee.

A claim row (:class:`Claim`) is a statement and the comparisons it
reads off a :class:`ResultTable`; it holds when it makes at least one
comparison and every one holds, so a NaN refutes the row that reads it.
A row may declare a headline cell: the number a verdict spreads over
seeds (a reduction, a gain, an excess); without one it is NaN.
:func:`check_claims` is the one check of a table's rows.  Two tables of
rows exist:

- :data:`PAPER_CLAIMS`, per figure: what Figures 2-4 must show on the
  :func:`figure_table` of a measured
  :class:`~repro.analysis.comparison.ComparisonSlice` (one row per
  protocol: its means, its distance half-means, and the relative
  changes the rows compare);
- :data:`~repro.experiments.ablations.ABLATIONS`, per ablation: the
  directions each ablation's table must show.

Absolute numbers depend on the substrate, so a figure row tests a
*shape* and carries the paper's magnitude in its statement:

1. Fig 2 — Locaware's mean download distance is below every
   baseline's (paper: ≈14% lower), stays below flooding's in both
   halves of the run, and *improves* (its second-half mean is below its
   first-half mean);
2. Fig 3 — each index-caching protocol cuts search traffic versus
   flooding by more than 90% (paper: ≈98%), and the three sit within
   3× of each other (the paper plots them nearly on top of each other);
3. Fig 4 — flooding has the strictly best success rate; Locaware
   beats Dicas (paper: ≈+23%) and Dicas-Keys (paper: ≈+33%).

:func:`check_paper_claims` checks the figure rows on one slice;
:func:`claim_verdicts` judges each row of either table over seeds — it
**holds** on every seed, **fails** on every seed, or is **unresolved**
(not a pass); :func:`check_report` does that for every row label of a
grid report; :func:`render_claim_lines` prints verdicts.  ``repro
figures`` and ``repro grid check`` print :func:`check_report`, ``repro
ablation`` judges its own table with :func:`claim_verdicts`.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

from .comparison import ComparisonSlice, comparison_slice
from .tables import format_percent, format_table

__all__ = [
    "PAPER_CLAIMS",
    "Claim",
    "ClaimCheck",
    "ClaimVerdict",
    "Comparison",
    "ResultTable",
    "Row",
    "all_of",
    "check_claims",
    "check_paper_claims",
    "check_report",
    "claim_verdicts",
    "each_row",
    "figure_table",
    "relative_change",
    "render_claim_lines",
    "steps",
    "vs",
]

_PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
_BASELINES = ("flooding", "dicas", "dicas-keys")
_CACHING = ("dicas", "dicas-keys", "locaware")


@dataclass
class ResultTable:
    """Measurements labelled by their first column: an ablation's table,
    or the :func:`figure_table` of a comparison slice."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def render(self) -> str:
        """The table as ASCII."""
        return format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")

    def column(self, header: str) -> list[Any]:
        """All values of one column (for assertions in benches/tests)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


class Comparison(NamedTuple):
    """One comparison a claim makes: ``lhs op rhs``, ``rhs`` being the
    threshold already computed."""

    what: str
    lhs: float
    op: str
    rhs: float


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class ClaimCheck:
    """One verified (or refuted) claim row."""

    claim: str
    holds: bool
    detail: str
    #: The row's headline number (what a verdict spreads over seeds).
    #: It may be NaN, so it takes no part in equality.
    value: float = field(compare=False)


@dataclass(frozen=True)
class Claim:
    """One row of a claim table."""

    text: str
    """The statement, printed after its table's tag (``Fig2: …``, ``A1: …``)."""
    compare: Callable[[ResultTable], list[Comparison]]
    headline: tuple[str, Any] | None = None
    """The ``(header, row)`` cell that is the row's headline value (NaN if ``None``)."""


def check_claims(tag: str, claims: Sequence[Claim], table: ResultTable) -> list[ClaimCheck]:
    """Every row of ``claims`` on ``table``, in order: a row holds when
    it made a comparison and every one holds."""
    checks = []
    for claim in claims:
        comparisons = claim.compare(table)
        holds = bool(comparisons) and all(_OPS[c.op](c.lhs, c.rhs) for c in comparisons)
        detail = "; ".join(f"{c.what}: {c.lhs:.4g} {c.op} {c.rhs:.4g}" for c in comparisons)
        value = math.nan if claim.headline is None else _cell(table, *claim.headline)[1]
        checks.append(ClaimCheck(f"{tag}: {claim.text}", holds, detail or "no rows", value))
    return checks


# --- comparisons, read off a table ------------------------------------------


class Row(enum.Enum):
    """A row named by its place in the table rather than by its label."""

    FIRST = 0
    LAST = -1


def _cell(table: ResultTable, header: str, row: Any) -> tuple[str, float]:
    """``header``'s value on ``row`` (a label or a :class:`Row`), and
    its name; NaN if the table has no such row."""
    labels, values = table.column(table.headers[0]), table.column(header)
    if isinstance(row, Row) and labels:
        row = labels[row.value]
    name = f"{header}[{row.name.lower() if isinstance(row, Row) else row}]"
    return name, values[labels.index(row)] if row in labels else math.nan


def _same(value: float) -> float:
    return value


def vs(
    lhs: tuple[str, Any], op: str, rhs: tuple[str, Any] | float,
    table: ResultTable, *, bound: Callable[[float], float] = _same,
) -> list[Comparison]:
    """One cell against another cell's ``bound`` (or a constant)."""
    what, value = _cell(table, *lhs)
    if isinstance(rhs, tuple):
        rhs_what, rhs_value = _cell(table, *rhs)
        what = f"{what} vs {rhs_what}"
        rhs = bound(rhs_value)
    return [Comparison(what, value, op, rhs)]


def each_row(
    header: str, op: str, rhs: str | float,
    table: ResultTable, *, bound: Callable[[float], float] = _same,
) -> list[Comparison]:
    """``header`` against column ``rhs``'s ``bound`` (or a constant) on every row."""
    labels, values = table.column(table.headers[0]), table.column(header)
    limits = (
        [bound(v) for v in table.column(rhs)] if isinstance(rhs, str)
        else [rhs] * len(values)
    )
    return [
        Comparison(f"{header}[{label}]", value, op, limit)
        for label, value, limit in zip(labels, values, limits, strict=True)
    ]


def steps(header: str, op: str, table: ResultTable) -> list[Comparison]:
    """Each row of ``header`` against the next: ``>=`` is falling, ``<=`` rising."""
    labels, values = table.column(table.headers[0]), table.column(header)
    return [
        Comparison(f"{header}[{a}→{b}]", x, op, y)
        for a, b, x, y in zip(labels, labels[1:], values, values[1:])
    ]


def all_of(
    *parts: Callable[[ResultTable], list[Comparison]],
) -> Callable[[ResultTable], list[Comparison]]:
    """Every comparison of ``parts``, in order: one row making them all."""
    return lambda table: [c for part in parts for c in part(table)]


# --- the figure rows ---------------------------------------------------------


def relative_change(new: float, base: float) -> float:
    """``(new - base) / base`` — negative means ``new`` is smaller."""
    if base == 0 or math.isnan(new) or math.isnan(base):
        return math.nan
    return (new - base) / base


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


_HALVES = ("dist_ms 1st half", "dist_ms 2nd half")
_FIGURE_HEADERS = [
    "protocol", "success", "dist_ms", "msgs", *_HALVES,
    "dist_ms trend",  # the second half-mean's change from the first
    "locaware dist_ms cut",  # Locaware's distance cut vs this protocol
    "locaware half cut",  # ... in the worse half for Locaware
    "msgs cut",  # this protocol's traffic cut vs flooding
    "msgs/lightest",  # its traffic over the lightest caching protocol's
    "caching excess",  # the heaviest caching protocol's, less 1 (every row)
    "locaware success gain",  # Locaware's relative success gain vs this protocol
]


def figure_table(result: ComparisonSlice) -> ResultTable:
    """The table :data:`PAPER_CLAIMS` reads off one comparison slice:
    one row per protocol (flooding, dicas, dicas-keys, locaware).

    The slice must hold the paper's four protocols; :class:`ValueError`
    names any that are missing.
    """
    summaries, series = result.summaries(), result.series()
    missing = set(_PROTOCOLS) - set(summaries)
    if missing:
        raise ValueError(f"missing protocols for claim checks: {sorted(missing)}")
    halves = {
        name: _halves(series[name].download_distance.windowed) for name in _PROTOCOLS
    }
    loc, flood = summaries["locaware"], summaries["flooding"]
    lightest = min(summaries[name].mean_messages for name in _CACHING)
    over_lightest = {
        name: summaries[name].mean_messages / lightest if lightest > 0 else math.nan
        for name in _PROTOCOLS
    }
    caching = [over_lightest[name] for name in _CACHING]
    excess = math.nan if any(map(math.isnan, caching)) else max(caching) - 1
    rows = []
    for name in _PROTOCOLS:
        own = summaries[name]
        half_cuts = [
            -relative_change(mine, theirs)
            for mine, theirs in zip(halves["locaware"], halves[name], strict=True)
        ]
        rows.append([
            name, own.success_rate, own.mean_download_distance_ms, own.mean_messages,
            *halves[name],
            relative_change(halves[name][1], halves[name][0]),
            -relative_change(loc.mean_download_distance_ms, own.mean_download_distance_ms),
            math.nan if any(map(math.isnan, half_cuts)) else min(half_cuts),
            -relative_change(own.mean_messages, flood.mean_messages),
            over_lightest[name],
            excess,
            relative_change(loc.success_rate, own.success_rate),
        ])
    return ResultTable(
        "FIG2-4", f"{result.row}, seed {result.seed}", list(_FIGURE_HEADERS), rows
    )


#: Figure id (``Figure.EXPERIMENT_ID``) → its rows, in figure order.
PAPER_CLAIMS: dict[str, tuple[Claim, ...]] = {
    "fig2": (
        Claim(
            "Locaware download distance below every baseline (~14% in paper)",
            all_of(*(
                partial(vs, ("dist_ms", "locaware"), "<", ("dist_ms", name))
                for name in _BASELINES
            )),
            headline=("locaware dist_ms cut", "flooding"),
        ),
        Claim(
            "Locaware download distance below flooding in both halves of the run",
            all_of(*(
                partial(vs, (half, "locaware"), "<", (half, "flooding")) for half in _HALVES
            )),
            headline=("locaware half cut", "flooding"),
        ),
        Claim(
            "Locaware distance improves as queries accumulate",
            partial(vs, (_HALVES[1], "locaware"), "<", (_HALVES[0], "locaware")),
            headline=("dist_ms trend", "locaware"),
        ),
    ),
    "fig3": (
        *(
            Claim(
                f"{name} cuts search traffic vs flooding (~98% in paper)",
                partial(vs, ("msgs cut", name), ">", 0.9),
                headline=("msgs cut", name),
            )
            for name in ("locaware", "dicas", "dicas-keys")
        ),
        Claim(
            "the three caching protocols' traffic is within 3x of each other",
            all_of(*(partial(vs, ("msgs/lightest", name), "<", 3.0) for name in _CACHING)),
            headline=("caching excess", "locaware"),
        ),
    ),
    "fig4": (
        Claim(
            "flooding has the best success rate",
            all_of(*(
                partial(vs, ("success", "flooding"), ">", ("success", name))
                for name in _CACHING
            )),
        ),
        *(
            Claim(
                f"Locaware beats {label} on success rate ({paper} in paper)",
                partial(vs, ("locaware success gain", name), ">", 0.0),
                headline=("locaware success gain", name),
            )
            for name, label, paper in (
                ("dicas", "Dicas", "+23%"), ("dicas-keys", "Dicas-Keys", "+33%")
            )
        ),
    ),
}


def check_paper_claims(
    result: ComparisonSlice, figure: str | None = None
) -> list[ClaimCheck]:
    """Check :data:`PAPER_CLAIMS` (only ``figure``'s rows, if given) on
    one comparison slice's :func:`figure_table`, in table order."""
    table = figure_table(result)
    return [
        check
        for tag, claims in PAPER_CLAIMS.items()
        if figure in (None, tag)
        for check in check_claims(tag.capitalize(), claims, table)
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
    lines.append(f"\n{held}/{len(verdicts)} claims hold")
    seeds = len(verdicts[0].checks) if verdicts else 1
    if seeds > 1:
        failed = sum(verdict.held == 0 for verdict in verdicts)
        lines[-1] += (
            f" on all {seeds} seeds; {failed} fail on all, "
            f"{len(verdicts) - held - failed} unresolved"
        )
    return "\n".join(lines)
