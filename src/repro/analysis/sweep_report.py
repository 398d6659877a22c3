"""Aggregating and rendering sweep-runner grids.

Works duck-typed on any report shaped like
:class:`~repro.experiments.grid.GridReport` (``protocols``,
``scenarios``, ``seeds``, ``max_queries``, and ``seed_runs()``), live
or restored by :mod:`repro.analysis.persistence` — the analysis layer
never imports the experiments layer.

:func:`aggregate_sweep` reduces each (scenario, protocol) row to its
seed-averaged headline numbers; :func:`render_sweep_report` prints one
table per scenario plus a cross-scenario Locaware summary.

:class:`SweepAggregator` is the incremental core both build on: it
accumulates one run at a time, so a result store can be aggregated by
streaming cell documents off disk without ever holding every run in
memory (``repro grid report``).  Runs added in the same order produce
bit-identical row means (same float summation order), which is what
lets a resumed grid's aggregate match an uninterrupted one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .tables import format_percent, format_table

__all__ = [
    "SweepRow",
    "SweepAggregator",
    "aggregate_sweep",
    "render_sweep_report",
    "render_sweep_rows",
]


@dataclass(frozen=True)
class SweepRow:
    """Seed-averaged headline metrics of one (scenario, protocol) row."""

    scenario: str
    protocol: str
    seeds: int
    success_rate: float
    mean_messages: float
    mean_download_distance_ms: float
    locally_satisfied: float
    sim_time_s: float


def _mean(values: list[float]) -> float:
    clean = [v for v in values if not math.isnan(v)]
    return sum(clean) / len(clean) if clean else math.nan


#: The headline metrics a row averages, as (field, extractor) pairs.
_ROW_METRICS = (
    ("success_rate", lambda r: r.summary.success_rate),
    ("mean_messages", lambda r: r.summary.mean_messages),
    ("mean_download_distance_ms", lambda r: r.summary.mean_download_distance_ms),
    ("locally_satisfied", lambda r: float(r.locally_satisfied)),
    ("sim_time_s", lambda r: r.sim_time_s),
)


class SweepAggregator:
    """Streaming seed-averager for (scenario, protocol) rows.

    Feed it runs one at a time with :meth:`add` — live
    :class:`~repro.experiments.runner.ProtocolRun` objects or restored
    store documents alike — and read the finished rows with
    :meth:`rows`.  NaN metric values (e.g. no successful download on
    one seed) are excluded per metric, matching :func:`aggregate_sweep`
    semantics; a row whose every value is NaN averages to NaN.
    """

    def __init__(self) -> None:
        # (scenario, protocol) → {"seeds": n, metric: [sum, count], ...}
        self._rows: dict[tuple[str, str], dict[str, Any]] = {}

    def add(self, scenario: str, protocol: str, run: Any) -> None:
        """Fold one run into its (scenario, protocol) row."""
        row = self._rows.setdefault(
            (scenario, protocol),
            {"seeds": 0, **{name: [0.0, 0] for name, _ in _ROW_METRICS}},
        )
        row["seeds"] += 1
        for name, extract in _ROW_METRICS:
            value = float(extract(run))
            if not math.isnan(value):
                accumulator = row[name]
                accumulator[0] += value
                accumulator[1] += 1

    def rows(self) -> dict[tuple[str, str], SweepRow]:
        """The seed-averaged rows accumulated so far."""
        finished: dict[tuple[str, str], SweepRow] = {}
        for (scenario, protocol), row in self._rows.items():
            means = {
                name: (row[name][0] / row[name][1] if row[name][1] else math.nan)
                for name, _ in _ROW_METRICS
            }
            finished[(scenario, protocol)] = SweepRow(
                scenario=scenario, protocol=protocol, seeds=row["seeds"], **means
            )
        return finished

    def __len__(self) -> int:
        return len(self._rows)


def aggregate_sweep(report: Any) -> dict[tuple[str, str], SweepRow]:
    """Reduce a sweep grid to seed-averaged rows, keyed (scenario, protocol)."""
    aggregator = SweepAggregator()
    for scenario in report.scenarios:
        for protocol in report.protocols:
            for run in report.seed_runs(protocol, scenario):
                aggregator.add(scenario, protocol, run)
    return aggregator.rows()


def _scenario_table(
    rows: dict[tuple[str, str], SweepRow],
    scenario: str,
    protocols: list[str],
    title: str,
) -> str:
    table_rows = []
    for protocol in protocols:
        row = rows[(scenario, protocol)]
        table_rows.append(
            [
                protocol,
                format_percent(row.success_rate),
                row.mean_messages,
                row.mean_download_distance_ms,
                row.locally_satisfied,
            ]
        )
    return format_table(
        ["protocol", "success", "msgs/query", "distance ms", "local hits"],
        table_rows,
        title=title,
    )


def render_sweep_rows(
    rows: dict[tuple[str, str], SweepRow], heading: str | None = None
) -> str:
    """Render aggregated rows alone — no report object required.

    Used when the rows were streamed from a result store
    (``repro grid report``) and there is no single grid spec to frame
    them: scenarios and protocols are shown sorted, one table per
    scenario label, each row annotated with its seed count.
    """
    scenarios = sorted({scenario for scenario, _ in rows})
    blocks: list[str] = [] if heading is None else [heading]
    for scenario in scenarios:
        protocols = sorted(
            protocol for (s, protocol) in rows if s == scenario
        )
        seed_counts = {rows[(scenario, p)].seeds for p in protocols}
        note = (
            f"mean over {next(iter(seed_counts))} seeds"
            if len(seed_counts) == 1
            else "mean over stored seeds"
        )
        blocks.append(
            _scenario_table(
                rows, scenario, protocols, title=f"scenario: {scenario} ({note})"
            )
        )
    return "\n\n".join(blocks)


def render_sweep_report(report: Any) -> str:
    """Human-readable sweep report: one table per scenario."""
    rows = aggregate_sweep(report)
    blocks: list[str] = [
        f"Sweep grid: {len(report.protocols)} protocols × "
        f"{len(report.scenarios)} scenarios × {len(report.seeds)} seeds "
        f"({report.max_queries} queries per cell)"
    ]
    for scenario in report.scenarios:
        blocks.append(
            _scenario_table(
                rows,
                scenario,
                list(report.protocols),
                title=f"scenario: {scenario} (mean over {len(report.seeds)} seeds)",
            )
        )
    if "locaware" in report.protocols and len(report.scenarios) > 1:
        summary_rows = []
        for scenario in report.scenarios:
            row = rows[(scenario, "locaware")]
            summary_rows.append(
                [
                    scenario,
                    format_percent(row.success_rate),
                    row.mean_messages,
                    row.mean_download_distance_ms,
                ]
            )
        blocks.append(
            format_table(
                ["scenario", "success", "msgs/query", "distance ms"],
                summary_rows,
                title="locaware across scenarios",
            )
        )
    return "\n\n".join(blocks)
