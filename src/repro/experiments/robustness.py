"""Multi-seed robustness of the paper's claims.

A reproduction that passes on one lucky seed proves little.  This
module re-runs the four-protocol comparison across several master
seeds and reports how often each row of
:data:`~repro.analysis.paper_claims.PAPER_CLAIMS` holds, plus the
spread of the headline number of every row that names one (traffic
reduction, distance reduction, success-rate margins).

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

from ..analysis.comparison import comparison_slice
from ..analysis.paper_claims import PAPER_CLAIMS, check_paper_claims
from ..analysis.tables import format_percent, format_table
from ..sim.config import SimulationConfig
from .grid import GridReport, GridSpec, execute_cells
from .runner import DEFAULT_PROTOCOL_ORDER
from .setup import paper_config

__all__ = ["SeedSweepResult", "run_seed_sweep"]


@dataclass
class SeedSweepResult:
    """Claim pass-counts and headline spreads across seeds, one entry
    per row of the claim table."""

    seeds: list[int]
    max_queries: int
    claim_passes: dict[str, int] = field(
        default_factory=lambda: {claim.statement: 0 for claim in PAPER_CLAIMS}
    )
    spreads: dict[str, list[float]] = field(
        default_factory=lambda: {
            claim.spread: [] for claim in PAPER_CLAIMS if claim.spread
        }
    )
    """spread label → the row's headline value per seed."""

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
            [_spread_row(label, values) for label, values in self.spreads.items()],
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
        checks = check_paper_claims(comparison_slice(report, "baseline", seed))
        for claim, check in zip(PAPER_CLAIMS, checks):
            sweep.claim_passes[claim.statement] += check.holds
            if claim.spread:
                sweep.spreads[claim.spread].append(check.value)
    return sweep
