"""Protocol × scenario × seed sweeps, optionally across processes.

The grid's cells are embarrassingly parallel: every cell is one
self-contained, seed-deterministic :func:`~repro.experiments.runner.
run_protocol` call (its own simulator, network, and named random
streams), so :class:`SweepRunner` can fan cells out over a
``multiprocessing`` pool with no shared state and no ordering effects —
``workers=1`` and ``workers=N`` produce identical results cell for
cell, which ``tests/test_determinism.py`` locks in.

Since the experiment-grid subsystem landed, this module is a thin
named-scenario face over the one sweep engine in
:mod:`repro.experiments.grid`: ``SweepRunner`` builds a
:class:`~repro.experiments.grid.GridSpec` (no scenario parameters, no
config-override axis) and drives it through
:func:`~repro.experiments.grid.execute_cells`.  Use the grid API
directly when you need parameterised scenarios, config-override axes,
or the resumable result store.

Usage::

    runner = SweepRunner(
        base_config=small_config(),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "flash-crowd"),
        seeds=(1, 2),
        max_queries=200,
        workers=4,
    )
    report = runner.run(progress=print)
    print(render_sweep_report(report))

``repro sweep`` is the CLI face of this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..scenarios import get_scenario
from ..sim.config import SimulationConfig
from .grid import GridSpec, execute_cells
from .runner import DEFAULT_PROTOCOL_ORDER, PROTOCOL_REGISTRY, ProtocolRun
from .setup import paper_config

__all__ = ["SweepCell", "SweepReport", "SweepRunner"]


@dataclass(frozen=True)
class SweepCell:
    """One grid coordinate: which protocol, under which regime, which seed."""

    protocol: str
    scenario: str
    seed: int


@dataclass
class SweepReport:
    """Every cell's results plus the grid that produced them."""

    base_config: SimulationConfig
    protocols: tuple[str, ...]
    scenarios: tuple[str, ...]
    seeds: tuple[int, ...]
    max_queries: int
    bucket_width: int
    runs: dict[SweepCell, ProtocolRun] = field(default_factory=dict)

    @property
    def num_cells(self) -> int:
        """Grid size (protocols × scenarios × seeds)."""
        return len(self.runs)

    def run_for(self, protocol: str, scenario: str, seed: int) -> ProtocolRun:
        """The result of one cell."""
        return self.runs[SweepCell(protocol=protocol, scenario=scenario, seed=seed)]

    def seed_runs(self, protocol: str, scenario: str) -> list[ProtocolRun]:
        """One (protocol, scenario) row: its runs across all seeds."""
        return [self.run_for(protocol, scenario, seed) for seed in self.seeds]

    def mean_over_seeds(
        self, protocol: str, scenario: str, metric: Callable[[ProtocolRun], float]
    ) -> float:
        """Average ``metric(run)`` across the seeds of one row.

        NaN cells (e.g. no successful download on one seed) are
        excluded, matching :func:`repro.analysis.aggregate_sweep`;
        ``nan`` only when every seed is NaN.
        """
        values = [metric(run) for run in self.seed_runs(protocol, scenario)]
        clean = [v for v in values if not math.isnan(v)]
        return sum(clean) / len(clean) if clean else math.nan


class SweepRunner:
    """Fans a protocol × scenario × seed grid across worker processes.

    Parameters
    ----------
    base_config:
        Configuration every cell starts from; each cell replaces the
        seed, then applies its scenario's overrides.  Defaults to the
        paper's §5.1 setup.
    protocols / scenarios / seeds:
        The grid axes.  Protocols and scenarios are validated against
        their registries up front so a typo fails before any simulation
        runs.
    workers:
        Process count.  ``1`` runs serially in-process (no pool); the
        effective count never exceeds the number of cells.
    reuse_builds:
        Build each distinct topology at most once — in the parent,
        with ``fork`` workers inheriting the prebuilt worlds
        copy-on-write (lazily per worker on platforms without fork) —
        and instantiate it per cell (see
        :class:`~repro.overlay.blueprint.NetworkBlueprint` /
        :class:`~repro.experiments.grid.GridWorkerPool`), instead of
        rebuilding the world for every cell.  Cells sharing a scenario
        and seed share a build; results are byte-identical either way
        (``tests/test_determinism.py`` locks this in).
    """

    def __init__(
        self,
        base_config: SimulationConfig | None = None,
        protocols: Sequence[str] = DEFAULT_PROTOCOL_ORDER,
        scenarios: Sequence[str] = ("baseline",),
        seeds: Sequence[int] = (20090322,),
        max_queries: int = 200,
        bucket_width: int | None = None,
        workers: int = 1,
        reuse_builds: bool = False,
    ) -> None:
        if not protocols:
            raise ValueError("at least one protocol is required")
        if not scenarios:
            raise ValueError("at least one scenario is required")
        if not seeds:
            raise ValueError("at least one seed is required")
        if len(set(protocols)) != len(protocols):
            raise ValueError(f"protocols must be unique, got {list(protocols)}")
        if len(set(scenarios)) != len(scenarios):
            raise ValueError(f"scenarios must be unique, got {list(scenarios)}")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be unique, got {list(seeds)}")
        if max_queries < 1:
            raise ValueError(f"max_queries must be >= 1, got {max_queries}")
        if bucket_width is not None and bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        for name in protocols:
            if name not in PROTOCOL_REGISTRY:
                raise ValueError(
                    f"unknown protocol {name!r}; known: {sorted(PROTOCOL_REGISTRY)}"
                )
        for name in scenarios:
            get_scenario(name)  # raises with the known-names list
        self.base_config = base_config if base_config is not None else paper_config()
        self.protocols = tuple(protocols)
        self.scenarios = tuple(scenarios)
        self.seeds = tuple(seeds)
        self.max_queries = max_queries
        self.bucket_width = (
            bucket_width if bucket_width is not None else max(1, max_queries // 8)
        )
        self.workers = workers
        self.reuse_builds = reuse_builds

    def _spec(self) -> GridSpec:
        """This sweep as a (parameterless) grid spec."""
        return GridSpec(
            base_config=self.base_config,
            protocols=self.protocols,
            scenarios=self.scenarios,
            seeds=self.seeds,
            max_queries=self.max_queries,
            bucket_width=self.bucket_width,
        )

    def cells(self) -> list[SweepCell]:
        """The grid in its deterministic execution order."""
        return [
            SweepCell(protocol=protocol, scenario=scenario, seed=seed)
            for scenario in self.scenarios
            for protocol in self.protocols
            for seed in self.seeds
        ]

    def run(
        self, progress: Callable[[str], None] | None = None
    ) -> SweepReport:
        """Execute every cell and assemble the report.

        ``progress`` (if given) receives one line per completed cell.
        Results are keyed by :class:`SweepCell`, so completion order —
        which *does* vary across pools and with ``reuse_builds`` —
        never affects the report.
        """
        spec = self._spec()
        report = SweepReport(
            base_config=self.base_config,
            protocols=self.protocols,
            scenarios=self.scenarios,
            seeds=self.seeds,
            max_queries=self.max_queries,
            bucket_width=self.bucket_width,
        )
        for cell, run in execute_cells(
            spec,
            spec.expand(),
            workers=self.workers,
            reuse_builds=self.reuse_builds,
            progress=progress,
        ):
            report.runs[
                SweepCell(
                    protocol=cell.protocol,
                    scenario=cell.scenario.name,
                    seed=cell.seed,
                )
            ] = run
        return report
