"""Multi-seed robustness of the paper's claims.

A reproduction that passes on one lucky seed proves little.  This
module re-runs the four-protocol comparison across several master
seeds and reports, per §5.2 claim, how often it holds — plus the
spread of the headline quantities (traffic reduction, distance
reduction, success-rate ordering margins).

The seeds × protocols grid is a one-scenario
:class:`~repro.experiments.grid.GridSpec` executed by the one sweep
engine (:func:`repro.experiments.grid.execute_cells`): all four
protocols of a seed share one topology build, and each seed's claims
are checked on its :func:`~repro.analysis.comparison.comparison_slice`.

Used by ``python -m repro seed-sweep`` and the claim-robustness test.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..analysis.comparison import (
    check_paper_claims,
    comparison_slice,
    relative_change,
)
from ..analysis.tables import format_percent, format_table
from ..sim.config import SimulationConfig
from .grid import GridReport, GridSpec, execute_cells
from .runner import DEFAULT_PROTOCOL_ORDER
from .setup import paper_config

__all__ = ["SeedSweepResult", "run_seed_sweep"]


@dataclass
class SeedSweepResult:
    """Claim pass-rates and headline spreads across seeds."""

    seeds: list[int]
    max_queries: int
    claim_passes: dict[str, int] = field(default_factory=dict)
    traffic_reductions: list[float] = field(default_factory=list)
    distance_reductions: list[float] = field(default_factory=list)
    locaware_vs_dicas: list[float] = field(default_factory=list)
    locaware_vs_dicas_keys: list[float] = field(default_factory=list)

    @property
    def num_seeds(self) -> int:
        """How many seeds were swept."""
        return len(self.seeds)

    def pass_rate(self, claim: str) -> float:
        """Fraction of seeds on which ``claim`` held."""
        if not self.seeds:
            return math.nan
        return self.claim_passes.get(claim, 0) / len(self.seeds)

    def all_claims_always_hold(self) -> bool:
        """Whether every claim passed on every seed."""
        return all(
            passes == len(self.seeds) for passes in self.claim_passes.values()
        )

    def render(self) -> str:
        """Human-readable sweep report."""
        rows = [
            [claim, f"{passes}/{len(self.seeds)}"]
            for claim, passes in self.claim_passes.items()
        ]
        header = format_table(
            ["claim", "holds"],
            rows,
            title=(
                f"Claim robustness over {len(self.seeds)} seeds "
                f"({self.max_queries} queries each)"
            ),
        )
        spreads = format_table(
            ["quantity", "min", "mean", "max"],
            [
                _spread_row("traffic reduction vs flooding", self.traffic_reductions),
                _spread_row("distance reduction vs flooding", self.distance_reductions),
                _spread_row("locaware vs dicas success", self.locaware_vs_dicas),
                _spread_row(
                    "locaware vs dicas-keys success", self.locaware_vs_dicas_keys
                ),
            ],
        )
        return f"{header}\n\n{spreads}"


def _spread_row(label: str, values: Sequence[float]) -> list[object]:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return [label, "n/a", "n/a", "n/a"]
    return [
        label,
        format_percent(min(clean)),
        format_percent(sum(clean) / len(clean)),
        format_percent(max(clean)),
    ]


def run_seed_sweep(
    seeds: Sequence[int],
    base: SimulationConfig | None = None,
    max_queries: int = 1000,
    bucket_width: int | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> SeedSweepResult:
    """Run the four-way comparison per seed and tally the claim checks.

    The seeds × protocols grid runs through the shared sweep engine
    with blueprint reuse (one topology build per seed, shared across
    the four protocols); ``workers`` fans the cells over processes —
    results are identical at any worker count.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    base = base if base is not None else paper_config()
    width = bucket_width if bucket_width is not None else max(1, max_queries // 8)
    spec = GridSpec(
        base_config=base,
        protocols=DEFAULT_PROTOCOL_ORDER,
        scenarios=("baseline",),
        seeds=seeds,
        max_queries=max_queries,
        bucket_width=width,
    )
    report = GridReport(spec=spec)
    announced: set[int] = set()
    for cell, run in execute_cells(spec, spec.expand(), workers=workers):
        if progress is not None and cell.seed not in announced:
            announced.add(cell.seed)
            progress(f"seed {cell.seed}...")
        report.runs[cell] = run

    sweep = SeedSweepResult(seeds=list(seeds), max_queries=max_queries)
    for seed in seeds:
        result = comparison_slice(report, "baseline", seed)
        summaries = result.summaries()
        checks = check_paper_claims(summaries, result.series())
        for check in checks:
            sweep.claim_passes.setdefault(check.claim, 0)
            if check.holds:
                sweep.claim_passes[check.claim] += 1
        flooding = summaries["flooding"]
        locaware = summaries["locaware"]
        sweep.traffic_reductions.append(
            -relative_change(locaware.mean_messages, flooding.mean_messages)
        )
        sweep.distance_reductions.append(
            -relative_change(
                locaware.mean_download_distance_ms,
                flooding.mean_download_distance_ms,
            )
        )
        sweep.locaware_vs_dicas.append(
            relative_change(locaware.success_rate, summaries["dicas"].success_rate)
        )
        sweep.locaware_vs_dicas_keys.append(
            relative_change(
                locaware.success_rate, summaries["dicas-keys"].success_rate
            )
        )
    return sweep
