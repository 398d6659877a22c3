"""Scenario abstraction and registry.

A *scenario* packages one deployment regime the reproduction should be
exercised under: a set of :class:`~repro.sim.config.SimulationConfig`
overrides, the run's :class:`~repro.workload.generator.QueryWorkload`
(the one arrival process, which a scenario may hand a
``sample_file`` or ``rate_factor`` of its own), and an optional
post-build hook that installs mid-run events (e.g. a churn storm
collapsing session times).

A scenario instance holds its parameters and nothing else: all
per-run state lives in what :meth:`Scenario.build_workload` and
:meth:`Scenario.install` create for that run, so one instance can be
reused across runs, seeds, and worker processes without cross-talk —
which is what makes the parallel sweep runner's cells reproducible.
The constructor checks every parameter, type and range, so a grid
refuses a bad value before any cell runs.

Register a scenario with the :func:`register_scenario` decorator::

    @register_scenario
    class FlashCrowd(Scenario):
        name = "flash-crowd"
        description = "sudden popularity spike on one file"
        ...

and build it by name with :func:`make_scenario` — with keyword
overrides (``make_scenario("churn-storm", storm_time_s=30.0)``)
validated against the constructor signature, which is what lets
experiment grids put scenario *parameters* on an axis instead of only
registered names.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from ..overlay.churn import ChurnProcess
from ..overlay.network import P2PNetwork
from ..sim.config import SimulationConfig
from ..workload.generator import QueryWorkload

__all__ = [
    "Scenario",
    "ScenarioContext",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "make_scenario",
    "scenario_parameters",
    "scenario_names",
    "expected_horizon_s",
]

#: Protocol-issue callback signature shared with the workload layer.
IssueFn = Callable[[int, int, tuple[str, ...]], None]


def expected_horizon_s(config: SimulationConfig, max_queries: int) -> float:
    """Rough virtual duration of a run: ``max_queries`` arrivals at the
    nominal system rate (every peer alive).

    Scenarios use this to place mid-run events (popularity spikes,
    churn storms) *inside* the run whatever the configuration's scale,
    instead of hard-coding absolute times that a short horizon never
    reaches.  Pure arithmetic on the config, so it is identical across
    worker processes.
    """
    return max_queries / (config.num_peers * config.query_rate_per_peer)


@dataclass
class ScenarioContext:
    """Everything a scenario's install hook may touch, post-build."""

    network: P2PNetwork
    protocol: object
    workload: QueryWorkload
    churn: ChurnProcess | None = None


class Scenario:
    """One named deployment regime.

    Subclasses set :attr:`name`/:attr:`description`, take their knobs
    as constructor keywords stored under the same attribute names (a
    grid's cell key reads them back), and override any of the three
    hooks.  Every hook must stay deterministic given the network's
    seeded streams — scenarios may not import ``random`` or read
    wall-clock time, or the sweep runner's serial/parallel equivalence
    breaks.
    """

    #: Registry key, e.g. ``"flash-crowd"``.  Must be unique.
    name: str = ""

    #: One-line human description (shown by ``repro info``).
    description: str = ""

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        """Apply the scenario's config overrides (default: none).

        An override of a topology field
        (:data:`repro.sim.config.TOPOLOGY_FIELDS`) moves the run's
        topology fingerprint: a grid then builds that world for the
        scenario, and ``run_protocol`` refuses a blueprint built from
        the base configuration.
        """
        return config

    def build_workload(
        self,
        network: P2PNetwork,
        issue: IssueFn,
        max_queries: int,
    ) -> QueryWorkload:
        """Build the run's query workload (default: the paper's plain Zipf).

        A scenario that changes which file an arrival asks for, or how
        fast arrivals come, resolves its defaults against the run's
        horizon, draws its per-run state from a named stream of its own,
        and passes ``sample_file`` / ``rate_factor`` to
        :class:`~repro.workload.generator.QueryWorkload`.
        """
        return QueryWorkload(network, issue, max_queries)

    def install(self, ctx: ScenarioContext) -> None:
        """Install mid-run events after the system is built (default: none).

        Called once per run, after the protocol, churn process (if
        enabled), and workload have been constructed but before the
        workload's first arrival is armed and the driver starts
        advancing time.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: name → registered scenario class; a class called with no arguments
#: is the scenario at its defaults.
SCENARIO_REGISTRY: dict[str, type[Scenario]] = {}

S = TypeVar("S", bound=type[Scenario])


def register_scenario(cls: S) -> S:
    """Class decorator: register ``cls`` under its :attr:`Scenario.name`."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if cls.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {cls.name!r} is already registered")
    SCENARIO_REGISTRY[cls.name] = cls
    return cls


def _scenario_class(name: str) -> type[Scenario]:
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIO_REGISTRY)}"
        ) from None


def scenario_parameters(name: str) -> list[str]:
    """The keyword parameters the scenario's constructor accepts, sorted.

    Empty for scenarios without a constructor of their own (e.g. the
    baseline) — such scenarios accept no overrides at all.
    """
    cls = _scenario_class(name)
    if cls.__init__ is object.__init__:
        return []
    accepted = (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )
    return sorted(
        parameter.name
        for parameter in inspect.signature(cls.__init__).parameters.values()
        if parameter.name != "self" and parameter.kind in accepted
    )


def make_scenario(name: str, **params: object) -> Scenario:
    """The registered scenario ``name``, at its defaults or with keyword
    overrides.

    Every keyword is validated against the scenario's constructor
    signature, so a typo fails by name before any simulation runs;
    value errors (e.g. a negative storm time) surface from the
    constructor.
    """
    if params:
        known = scenario_parameters(name)
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ValueError(
                f"scenario {name!r} does not accept parameter(s) {unknown}; "
                f"accepted: {known if known else 'none'}"
            )
    return _scenario_class(name)(**params)


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIO_REGISTRY)
