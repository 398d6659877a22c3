"""The built-in scenario library.

Seven registered scenarios (``repro info`` prints this table):

- ``baseline``         — the paper's §5.1 stationary Zipf workload;
- ``flash-crowd``      — sudden popularity spike on one catalog file;
- ``regional-hotspot`` — one locId's peers hammer a small hot set;
- ``churn-storm``      — session times collapse mid-run, then recover;
- ``cold-start``       — sparse natural replication; measures warm-up;
- ``diurnal``          — sinusoidal query-rate modulation;
- ``popularity-shift`` — the Zipf rank → file assignment re-drawn periodically.

Each scenario is one class: its constructor takes and checks its knobs
(type and range, so a grid refuses a bad value before any cell runs),
:meth:`~Scenario.configure` applies its
:class:`~repro.sim.config.SimulationConfig` overrides,
:meth:`~Scenario.build_workload` hands the run's
:class:`~repro.workload.generator.QueryWorkload` its ``sample_file`` or
``rate_factor``, and :meth:`~Scenario.install` arms its mid-run events.
An unset time (``None``) resolves against the run's expected horizon
when the run is built.  Tests and ablations build tighter variants —
e.g. ``ChurnStorm(storm_time_s=30.0)`` — without touching the registry.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any

from ..sim.config import SimulationConfig
from ..workload.generator import QueryWorkload
from .base import (
    Scenario,
    ScenarioContext,
    expected_horizon_s,
    register_scenario,
)

__all__ = [
    "Baseline",
    "FlashCrowd",
    "RegionalHotspot",
    "ChurnStorm",
    "ColdStart",
    "Diurnal",
    "PopularityShift",
]


def _number(name: str, value: Any, kind: type = float, optional: bool = False) -> Any:
    """``value``, if it is a number a ``kind`` parameter takes.

    A float parameter takes an int or a float and keeps an int as
    given (the value enters the cell key), an int parameter only an
    int, and neither a bool; an ``optional`` one also takes ``None``.
    Anything else raises :class:`ValueError` naming the parameter, so
    a grid rejects it before any cell runs.
    """
    if value is None and optional:
        return None
    accepted = (int, float) if kind is float else (int,)
    if type(value) not in accepted:
        noun = "a number" if kind is float else "an int"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


def _require(name: str, value: Any, ok: bool, expected: str) -> None:
    """Raise :class:`ValueError` naming ``name`` unless ``ok``: the
    range check that follows a parameter's :func:`_number`."""
    if not ok:
        raise ValueError(f"{name} must be {expected}, got {value}")


def _at_horizon(
    value: float | None, fraction: float, config: SimulationConfig, max_queries: int
) -> float:
    """``value``, or ``fraction`` of the run's expected horizon when it is
    ``None``: how a scenario places a mid-run event at any scale."""
    if value is not None:
        return value
    return fraction * expected_horizon_s(config, max_queries)


@register_scenario
class Baseline(Scenario):
    """The paper's stationary workload, unchanged."""

    name = "baseline"
    description = "stationary Zipf workload, paper §5.1 configuration"


@register_scenario
class FlashCrowd(Scenario):
    """A file suddenly goes viral.

    Before ``spike_time_s`` the workload is the plain Zipf stream.
    From ``spike_time_s`` on, each arrival targets the *hot file* with
    probability ``spike_probability`` (drawn from the dedicated
    ``flash-crowd`` stream) and falls back to Zipf otherwise.  The hot
    file is picked uniformly from the catalog so the spike usually
    lands on a long-tail file — the regime where caches must react
    rather than already being warm.

    ``spike_time_s=None`` (the default) places the spike a quarter of
    the way into the run's expected horizon, so the crowd arrives
    whatever the configuration's scale or query budget.
    """

    name = "flash-crowd"
    description = "sudden popularity spike on one catalog file"

    def __init__(
        self,
        spike_time_s: float | None = None,
        spike_probability: float = 0.8,
    ) -> None:
        self.spike_time_s = _number("spike_time_s", spike_time_s, optional=True)
        self.spike_probability = _number("spike_probability", spike_probability)
        _require(
            "spike_time_s", spike_time_s,
            spike_time_s is None or spike_time_s >= 0, ">= 0",
        )
        _require(
            "spike_probability", spike_probability,
            0.0 < spike_probability <= 1.0, "in (0, 1]",
        )

    def build_workload(self, network, issue, max_queries):
        spike_time_s = _at_horizon(self.spike_time_s, 0.25, network.config, max_queries)
        probability = self.spike_probability
        crowd = network.streams.stream("flash-crowd")
        hot_file = crowd.randrange(network.config.num_files)
        sim = network.sim

        def sample_file(origin: int) -> int:
            if sim.now >= spike_time_s and crowd.random() < probability:
                return hot_file
            return zipf()

        workload = QueryWorkload(network, issue, max_queries, sample_file=sample_file)
        zipf = workload.sampler.sample  # the fallback: the workload's own draw
        return workload


@register_scenario
class RegionalHotspot(Scenario):
    """Demand skewed inside one locality.

    The hot region is the most populous locId (deterministic given the
    underlay); its peers direct ``hotspot_probability`` of their
    queries at a small hot set sampled from the catalog via the
    dedicated ``regional-hotspot`` stream.  Peers elsewhere keep the
    global Zipf behaviour — exactly the regime where Locaware's
    locId-aware provider selection should pay off (hot-set copies
    accumulate inside the region) and locality-blind caches should not.
    """

    name = "regional-hotspot"
    description = "most populous locId hammers a small hot file set"

    def __init__(
        self, hotspot_probability: float = 0.8, hot_set_size: int = 10
    ) -> None:
        self.hotspot_probability = _number("hotspot_probability", hotspot_probability)
        self.hot_set_size = _number("hot_set_size", hot_set_size, int)
        _require(
            "hotspot_probability", hotspot_probability,
            0.0 < hotspot_probability <= 1.0, "in (0, 1]",
        )
        _require("hot_set_size", hot_set_size, hot_set_size >= 1, ">= 1")

    def build_workload(self, network, issue, max_queries):
        probability = self.hotspot_probability
        region = network.streams.stream("regional-hotspot")
        histogram = network.underlay.locid_histogram()
        # Most populous locId; ties break on the smaller id so the pick
        # is deterministic across processes.
        hot_locid = min(histogram, key=lambda locid: (-histogram[locid], locid))
        num_files = network.config.num_files
        hot_files = tuple(
            sorted(region.sample(range(num_files), min(self.hot_set_size, num_files)))
        )
        peer = network.peer

        def sample_file(origin: int) -> int:
            if peer(origin).locid == hot_locid and region.random() < probability:
                return region.choice(hot_files)
            return zipf()

        workload = QueryWorkload(network, issue, max_queries, sample_file=sample_file)
        zipf = workload.sampler.sample  # the fallback: the workload's own draw
        return workload


@register_scenario
class ChurnStorm(Scenario):
    """Session times collapse mid-run, then recover.

    Churn runs from the start at calm means; at ``storm_time_s`` the
    means collapse to the storm values (sessions orders of magnitude
    shorter), and ``storm_duration_s`` later they are restored.  Cached
    indexes built pre-storm go massively stale — the stress §4.1.2's
    recency-based replacement exists for.
    """

    name = "churn-storm"
    description = "session times collapse mid-run, then recover"

    def __init__(
        self,
        calm_session_s: float = 3600.0,
        calm_downtime_s: float = 300.0,
        storm_session_s: float = 60.0,
        storm_downtime_s: float = 120.0,
        storm_time_s: float | None = None,
        storm_duration_s: float | None = None,
    ) -> None:
        means = {
            "calm_session_s": calm_session_s,
            "calm_downtime_s": calm_downtime_s,
            "storm_session_s": storm_session_s,
            "storm_downtime_s": storm_downtime_s,
        }
        for name, mean in means.items():
            _require(name, mean, _number(name, mean) > 0, "positive")
        _number("storm_time_s", storm_time_s, optional=True)
        _number("storm_duration_s", storm_duration_s, optional=True)
        _require(
            "storm_time_s", storm_time_s,
            storm_time_s is None or storm_time_s >= 0, ">= 0",
        )
        _require(
            "storm_duration_s", storm_duration_s,
            storm_duration_s is None or storm_duration_s > 0, "positive",
        )
        self.calm_session_s = calm_session_s
        self.calm_downtime_s = calm_downtime_s
        self.storm_session_s = storm_session_s
        self.storm_downtime_s = storm_downtime_s
        self.storm_time_s = storm_time_s
        self.storm_duration_s = storm_duration_s

    def storm_window(
        self, config: SimulationConfig, max_queries: int
    ) -> tuple[float, float]:
        """The resolved (begin, end) of the storm for one run.

        Defaults place the storm from a quarter to three quarters of
        the run's expected horizon, so it always happens mid-run
        whatever the scale; explicit times are used as given.
        """
        begin = _at_horizon(self.storm_time_s, 0.25, config, max_queries)
        duration = _at_horizon(self.storm_duration_s, 0.5, config, max_queries)
        return begin, begin + duration

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        return config.replace(
            churn_enabled=True,
            mean_session_s=self.calm_session_s,
            mean_downtime_s=self.calm_downtime_s,
        )

    def install(self, ctx: ScenarioContext) -> None:
        churn = ctx.churn
        if churn is None:  # pragma: no cover - configure() enables churn
            raise RuntimeError("churn-storm requires a churn process")
        sim = ctx.network.sim
        begin, end = self.storm_window(
            ctx.network.config, ctx.workload.max_queries
        )

        def storm_begins() -> None:
            churn.set_means(self.storm_session_s, self.storm_downtime_s)
            if ctx.network.tracer.enabled:
                ctx.network.tracer.emit(sim.now, "scenario.storm_begins")

        def storm_ends() -> None:
            churn.set_means(self.calm_session_s, self.calm_downtime_s)
            if ctx.network.tracer.enabled:
                ctx.network.tracer.emit(sim.now, "scenario.storm_ends")

        sim.schedule(begin, storm_begins)
        sim.schedule(end, storm_ends)


@register_scenario
class ColdStart(Scenario):
    """Warm-up from near-empty natural replication.

    Response indexes always start empty; what makes warm-up *visible*
    is starving natural replication too: each peer shares a single file
    instead of the paper's three, so early queries mostly miss and the
    figures' bucketed series trace how quickly each protocol's caches
    lift success rate and cut distance from a cold system.
    """

    name = "cold-start"
    description = "sparse initial replication; measures cache warm-up"

    def __init__(self, files_per_peer: int = 1) -> None:
        self.files_per_peer = _number("files_per_peer", files_per_peer, int)
        _require("files_per_peer", files_per_peer, files_per_peer >= 0, ">= 0")

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        return config.replace(
            files_per_peer=min(self.files_per_peer, config.files_per_peer)
        )


@register_scenario
class Diurnal(Scenario):
    """Day/night swing of the query rate.

    The system arrival rate is the baseline Poisson rate multiplied by
    ``1 + amplitude * sin(2π · now / period_s)``.  ``amplitude`` must
    stay strictly below 1 so the factor — and therefore the rate, while
    any peer is alive — remains positive at every instant.

    ``period_s=None`` (the default) sets the period to the run's
    expected horizon, so every run sees one full day/night cycle
    whatever its scale.
    """

    name = "diurnal"
    description = "sinusoidal query-rate modulation around the baseline"

    def __init__(
        self, period_s: float | None = None, amplitude: float = 0.6
    ) -> None:
        self.period_s = _number("period_s", period_s, optional=True)
        self.amplitude = _number("amplitude", amplitude)
        _require("period_s", period_s, period_s is None or period_s > 0, "positive")
        _require("amplitude", amplitude, 0.0 <= amplitude < 1.0, "in [0, 1)")

    def rate_factor(self, period_s: float) -> Callable[[float], float]:
        """The (always positive) modulation factor as a function of
        virtual time, for one cycle of ``period_s`` seconds."""
        amplitude = self.amplitude

        def factor(now: float) -> float:
            return 1.0 + amplitude * math.sin(2.0 * math.pi * now / period_s)

        return factor

    def build_workload(self, network, issue, max_queries):
        period_s = _at_horizon(self.period_s, 1.0, network.config, max_queries)
        return QueryWorkload(
            network, issue, max_queries, rate_factor=self.rate_factor(period_s)
        )


@register_scenario
class PopularityShift(Scenario):
    """What is popular drifts: the Zipf skew stays, the hot files rotate.

    Gnutella measurements (the paper's refs [11, 15]) motivate index
    caching with the *temporal locality* of queries, but popularity is
    not stationary — hits rise and fade.  Every ``interval_s`` virtual
    seconds the workload's Zipf rank → file assignment is re-drawn from
    the dedicated ``popularity-shift`` stream, keeping the skew but
    rotating which files are hot: the stress §4.1.2's recency-based
    replacement exists for.  The paper does not evaluate drift; this is
    a reproduction extension (ablation EXT2, ``repro ablation ext2``).

    ``interval_s=None`` (the default) re-draws every quarter of the
    run's expected horizon, so popularity moves mid-run whatever the
    configuration's scale.  Re-draws stop once the workload has
    generated its last query.
    """

    name = "popularity-shift"
    description = "Zipf popularity ranks re-drawn at fixed intervals"

    def __init__(self, interval_s: float | None = None) -> None:
        self.interval_s = _number("interval_s", interval_s, optional=True)
        _require(
            "interval_s", interval_s, interval_s is None or interval_s > 0, "positive"
        )

    def install(self, ctx: ScenarioContext) -> None:
        network, workload = ctx.network, ctx.workload
        sim, tracer = network.sim, network.tracer
        interval = _at_horizon(
            self.interval_s, 0.25, network.config, workload.max_queries
        )
        rng = network.streams.stream("popularity-shift")

        # ``shift`` is handed itself as an argument: a closure naming
        # itself would be a reference cycle, and a cell makes no
        # cyclic garbage.
        def shift(again: Callable[..., None]) -> None:
            workload.sampler.reshuffle(rng)
            shifts = network.metrics.counter("workload.popularity_shifts")
            shifts.increment()
            if tracer.enabled:
                tracer.emit(sim.now, "workload.shift", count=shifts.value)
            if workload.generated < workload.max_queries:
                sim.schedule(interval, again, again)

        sim.schedule(interval, shift, shift)
