"""Scenario abstraction and registry.

A *scenario* packages one deployment regime the reproduction should be
exercised under: a set of :class:`~repro.sim.config.SimulationConfig`
overrides, a workload (built on the :mod:`repro.workload` machinery),
and an optional post-build hook that installs mid-run events (e.g. a
churn storm collapsing session times).

Scenarios are stateless: all per-run state lives in the workload and
the :class:`ScenarioContext`, so one registered instance can be reused
across runs, seeds, and worker processes without cross-talk — which is
what makes the parallel sweep runner's cells reproducible.

Register a scenario with the :func:`register_scenario` decorator::

    @register_scenario
    class FlashCrowd(Scenario):
        name = "flash-crowd"
        description = "sudden popularity spike on one file"
        ...

and look it up by name with :func:`get_scenario`.

Registration records both a default-parameter *instance* (what
:func:`get_scenario` returns) and the *class* itself, so the class
doubles as a factory: :func:`make_scenario` builds a variant with
keyword overrides (``make_scenario("churn-storm", storm_time_s=30.0)``)
after validating the keywords against the constructor signature —
which is what lets experiment grids put scenario *parameters* on an
axis instead of only registered names.
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
    "SCENARIO_CLASSES",
    "register_scenario",
    "get_scenario",
    "make_scenario",
    "scenario_parameters",
    "scenario_names",
    "expected_horizon_s",
]

#: Protocol-issue callback signature shared with the workload layer.
IssueFn = Callable[[int, int, tuple[str, ...]], None]


def expected_horizon_s(
    config: SimulationConfig, max_queries: int | None
) -> float | None:
    """Rough virtual duration of a run: ``max_queries`` arrivals at the
    nominal system rate (every peer alive).

    Scenarios use this to place mid-run events (popularity spikes,
    churn storms) *inside* the run whatever the configuration's scale,
    instead of hard-coding absolute times that a short horizon never
    reaches.  Pure arithmetic on the config, so it is identical across
    worker processes.  ``None`` when the workload is unbounded.
    """
    if max_queries is None:
        return None
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

    Subclasses set :attr:`name`/:attr:`description` and override any of
    the three hooks.  Every hook must stay deterministic given the
    network's seeded streams — scenarios may not import ``random`` or
    read wall-clock time, or the sweep runner's serial/parallel
    equivalence breaks.
    """

    #: Registry key, e.g. ``"flash-crowd"``.  Must be unique.
    name: str = ""

    #: One-line human description (shown by ``repro info``).
    description: str = ""

    #: Whether :meth:`configure` may change a topology-affecting field
    #: (:data:`repro.sim.config.TOPOLOGY_FIELDS`).  ``False`` promises
    #: the overrides are run-time-only, so a cached
    #: :class:`~repro.overlay.blueprint.NetworkBlueprint` built from
    #: the base configuration stays reusable; the promise is enforced —
    #: ``run_protocol`` raises if a scenario declaring ``False``
    #: nevertheless shifts the topology fingerprint.
    touches_topology: bool = False

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        """Apply the scenario's config overrides (default: none)."""
        return config

    def build_workload(
        self,
        network: P2PNetwork,
        issue: IssueFn,
        max_queries: int | None,
    ) -> QueryWorkload:
        """Build the scenario's query workload (default: plain Zipf)."""
        return QueryWorkload(network, issue, max_queries=max_queries)

    def install(self, ctx: ScenarioContext) -> None:
        """Install mid-run events after the system is built (default: none).

        Called once per run, after the protocol, churn process (if
        enabled), and workload have been constructed but before the
        driver starts advancing time.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: name → registered scenario instance.
SCENARIO_REGISTRY: dict[str, Scenario] = {}

#: name → registered scenario class (the factory behind the instance).
SCENARIO_CLASSES: dict[str, type[Scenario]] = {}

S = TypeVar("S", bound=type[Scenario])


def register_scenario(cls: S) -> S:
    """Class decorator: instantiate ``cls`` and register it by name."""
    scenario = cls()
    if not scenario.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if scenario.name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIO_REGISTRY[scenario.name] = scenario
    SCENARIO_CLASSES[scenario.name] = cls
    return cls


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
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
    get_scenario(name)  # raises with the known-names list
    cls = SCENARIO_CLASSES[name]
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
    """Build a scenario variant with keyword overrides.

    With no overrides this returns the registered (stateless, shared)
    default instance; with overrides it validates every keyword against
    the scenario's constructor signature and instantiates a fresh
    variant, so a typo fails by name before any simulation runs.  Value
    errors (e.g. a negative storm time) surface from the constructor.
    """
    scenario = get_scenario(name)
    if not params:
        return scenario
    known = scenario_parameters(name)
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"scenario {name!r} does not accept parameter(s) {unknown}; "
            f"accepted: {known if known else 'none'}"
        )
    return SCENARIO_CLASSES[name](**params)


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIO_REGISTRY)
