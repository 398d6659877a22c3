"""The built-in scenario library.

Seven registered scenarios (``repro info`` prints this table):

- ``baseline``         — the paper's §5.1 stationary Zipf workload;
- ``flash-crowd``      — sudden popularity spike on one catalog file;
- ``regional-hotspot`` — one locId's peers hammer a small hot set;
- ``churn-storm``      — session times collapse mid-run, then recover;
- ``cold-start``       — sparse natural replication; measures warm-up;
- ``diurnal``          — sinusoidal query-rate modulation;
- ``popularity-shift`` — the Zipf rank → file assignment re-drawn periodically.

Each scenario composes :class:`~repro.sim.config.SimulationConfig`
overrides with a workload from :mod:`repro.scenarios.workloads`.  The
classes take their knobs as constructor arguments (with the registry
holding default-parameter instances), so tests and ablations can build
tighter variants — e.g. ``ChurnStorm(storm_time_s=30.0)`` — without
touching the registry.
"""

from __future__ import annotations


from ..sim.config import SimulationConfig
from ..workload.shifting import ShiftingZipfWorkload
from .base import (
    Scenario,
    ScenarioContext,
    expected_horizon_s,
    register_scenario,
)
from .workloads import (
    _DEFAULT_EVENT_TIME_S,
    DiurnalWorkload,
    FlashCrowdWorkload,
    RegionalHotspotWorkload,
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


@register_scenario
class Baseline(Scenario):
    """The paper's stationary workload, unchanged."""

    name = "baseline"
    description = "stationary Zipf workload, paper §5.1 configuration"


@register_scenario
class FlashCrowd(Scenario):
    """A file suddenly goes viral."""

    name = "flash-crowd"
    description = "sudden popularity spike on one catalog file"

    def __init__(
        self,
        spike_time_s: float | None = None,
        spike_probability: float = 0.8,
    ) -> None:
        self.spike_time_s = spike_time_s
        self.spike_probability = spike_probability

    def build_workload(self, network, issue, max_queries):
        return FlashCrowdWorkload(
            network,
            issue,
            max_queries=max_queries,
            spike_time_s=self.spike_time_s,
            spike_probability=self.spike_probability,
        )


@register_scenario
class RegionalHotspot(Scenario):
    """Demand skewed inside one locality."""

    name = "regional-hotspot"
    description = "most populous locId hammers a small hot file set"

    def __init__(
        self, hotspot_probability: float = 0.8, hot_set_size: int = 10
    ) -> None:
        self.hotspot_probability = hotspot_probability
        self.hot_set_size = hot_set_size

    def build_workload(self, network, issue, max_queries):
        return RegionalHotspotWorkload(
            network,
            issue,
            max_queries=max_queries,
            hotspot_probability=self.hotspot_probability,
            hot_set_size=self.hot_set_size,
        )


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
        if storm_time_s is not None and storm_time_s < 0:
            raise ValueError(f"storm_time_s must be >= 0, got {storm_time_s}")
        if storm_duration_s is not None and storm_duration_s <= 0:
            raise ValueError(
                f"storm_duration_s must be positive, got {storm_duration_s}"
            )
        self.calm_session_s = calm_session_s
        self.calm_downtime_s = calm_downtime_s
        self.storm_session_s = storm_session_s
        self.storm_downtime_s = storm_downtime_s
        self.storm_time_s = storm_time_s
        self.storm_duration_s = storm_duration_s

    def storm_window(
        self, config: SimulationConfig, max_queries: int | None
    ) -> tuple:
        """The resolved (begin, end) of the storm for one run.

        Defaults place the storm from a quarter to three quarters of
        the run's expected horizon, so it always happens mid-run
        whatever the scale; explicit times are used as given.
        """
        horizon = expected_horizon_s(config, max_queries)
        fallback = _DEFAULT_EVENT_TIME_S
        begin = self.storm_time_s
        if begin is None:
            begin = 0.25 * horizon if horizon is not None else fallback
        duration = self.storm_duration_s
        if duration is None:
            duration = 0.5 * horizon if horizon is not None else fallback
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
    touches_topology = True  # files_per_peer changes the initial shares

    def __init__(self, files_per_peer: int = 1) -> None:
        if files_per_peer < 0:
            raise ValueError(f"files_per_peer must be >= 0, got {files_per_peer}")
        self.files_per_peer = files_per_peer

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        return config.replace(
            files_per_peer=min(self.files_per_peer, config.files_per_peer)
        )


@register_scenario
class Diurnal(Scenario):
    """Day/night swing of the query rate."""

    name = "diurnal"
    description = "sinusoidal query-rate modulation around the baseline"

    def __init__(
        self, period_s: float | None = None, amplitude: float = 0.6
    ) -> None:
        self.period_s = period_s
        self.amplitude = amplitude

    def build_workload(self, network, issue, max_queries):
        return DiurnalWorkload(
            network,
            issue,
            max_queries=max_queries,
            period_s=self.period_s,
            amplitude=self.amplitude,
        )


@register_scenario
class PopularityShift(Scenario):
    """What is popular drifts: the Zipf skew stays, the hot files rotate.

    ``interval_s=None`` (the default) re-draws the rank → file
    assignment every quarter of the run's expected horizon, so
    popularity moves mid-run whatever the configuration's scale.
    """

    name = "popularity-shift"
    description = "Zipf popularity ranks re-drawn at fixed intervals"

    def __init__(self, interval_s: float | None = None) -> None:
        if interval_s is not None and interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = interval_s

    def build_workload(self, network, issue, max_queries):
        interval = self.interval_s
        if interval is None:
            horizon = expected_horizon_s(network.config, max_queries)
            interval = (
                0.25 * horizon if horizon is not None else _DEFAULT_EVENT_TIME_S
            )
        return ShiftingZipfWorkload(
            network, issue, shift_interval_s=interval, max_queries=max_queries
        )
