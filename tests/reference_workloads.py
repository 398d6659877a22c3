"""The scenario workload subclasses: the oracle of the scenario draws.

Until each scenario became one class, the four scenarios that change
the paper's §5.1 workload each had a :class:`QueryWorkload` subclass
overriding ``_sample_file`` (which file an arrival asks for) or
``_system_rate`` (how fast arrivals come), and the popularity shift
armed its own timer in ``start``.  This module keeps those classes and
the base class they extended as they were.
``tests/test_reference_workloads.py`` holds each scenario's arrival
stream — every arrival's ``(time, origin, file_id, keywords)`` and the
number of popularity shifts — to these classes, draw for draw.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.overlay.network import P2PNetwork
from repro.sim.config import SimulationConfig
from repro.workload.zipf import ZipfSampler

__all__ = [
    "QueryWorkload",
    "FlashCrowdWorkload",
    "RegionalHotspotWorkload",
    "DiurnalWorkload",
    "ShiftingZipfWorkload",
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


class QueryWorkload:
    """Poisson arrivals of Zipf-popular keyword queries.

    Parameters
    ----------
    network:
        The assembled system (provides the simulator, catalog, config).
    issue:
        Callback invoked at each arrival:
        ``issue(origin, file_id, keywords)``.
    max_queries:
        Stop generating after this many queries (the experiments' x-axis
        bound).  ``None`` = unlimited.
    """

    #: Called, when set, at the end of every arrival — after the query
    #: was issued and the next arrival armed.  The experiment driver
    #: sets it: the last arrival is one of the two moments a run can
    #: become settled (the origin may answer it from its own files,
    #: leaving nothing pending).
    on_arrival: Callable[[], None] | None = None

    def __init__(
        self,
        network: P2PNetwork,
        issue: Callable[[int, int, tuple[str, ...]], None],
        max_queries: int | None = None,
    ) -> None:
        self._network = network
        self._issue = issue
        self._max_queries = max_queries
        config = network.config
        self._rng = network.streams.stream("workload")
        self._sampler = ZipfSampler(
            config.num_files, config.zipf_exponent, network.streams.stream("zipf")
        )
        self._generated = 0

    @property
    def generated(self) -> int:
        """Queries generated so far."""
        return self._generated

    @property
    def max_queries(self) -> int | None:
        """The generation bound (``None`` = unlimited)."""
        return self._max_queries

    @property
    def sampler(self) -> ZipfSampler:
        """The popularity sampler (exposed for analysis)."""
        return self._sampler

    def start(self) -> None:
        """Arm the first arrival timer."""
        self._schedule_next()

    def _system_rate(self) -> float:
        return (
            self._network.liveness.alive_count()
            * self._network.config.query_rate_per_peer
        )

    def _schedule_next(self) -> None:
        if self._max_queries is not None and self._generated >= self._max_queries:
            return
        rate = self._system_rate()
        if rate <= 0:
            # Everyone is down; retry when churn may have revived peers.
            self._network.sim.schedule(1.0, self._schedule_next)
            return
        delay = self._rng.expovariate(rate)
        self._network.sim.schedule(delay, self._arrival)

    def _arrival(self) -> None:
        alive_ids = self._network.alive_peer_ids()
        if alive_ids:
            origin = self._rng.choice(alive_ids)
            file_id = self._sample_file(origin)
            keywords = self._pick_keywords(file_id)
            self._generated += 1
            self._issue(origin, file_id, keywords)
        self._schedule_next()
        if self.on_arrival is not None:
            self.on_arrival()

    def _sample_file(self, origin: int) -> int:
        """Pick the queried file for an arrival at ``origin``.

        The base workload ignores the origin and draws from the global
        Zipf popularity; scenario workloads override this to skew demand
        per region, spike one file, and so on.
        """
        return self._sampler.sample()

    def _pick_keywords(self, file_id: int) -> tuple[str, ...]:
        """1–3 random keywords of the queried filename (§5.1)."""
        config = self._network.config
        all_keywords = self._network.catalog.keywords(file_id)
        upper = min(config.max_query_keywords, len(all_keywords))
        lower = min(config.min_query_keywords, upper)
        count = self._rng.randint(lower, upper)
        return tuple(sorted(self._rng.sample(all_keywords, count)))


#: Fallback event time for unbounded workloads, where no horizon can be
#: derived (seconds).
_DEFAULT_EVENT_TIME_S = 600.0


class FlashCrowdWorkload(QueryWorkload):
    """A sudden popularity spike on one file.

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

    def __init__(
        self,
        network: P2PNetwork,
        issue: IssueFn,
        max_queries: int | None = None,
        spike_time_s: float | None = None,
        spike_probability: float = 0.8,
    ) -> None:
        if spike_time_s is not None and spike_time_s < 0:
            raise ValueError(f"spike_time_s must be >= 0, got {spike_time_s}")
        if not (0.0 < spike_probability <= 1.0):
            raise ValueError(
                f"spike_probability must be in (0, 1], got {spike_probability}"
            )
        super().__init__(network, issue, max_queries=max_queries)
        if spike_time_s is None:
            horizon = expected_horizon_s(network.config, max_queries)
            spike_time_s = (
                0.25 * horizon if horizon is not None else _DEFAULT_EVENT_TIME_S
            )
        self._spike_time_s = spike_time_s
        self._spike_probability = spike_probability
        self._crowd_rng = network.streams.stream("flash-crowd")
        self.hot_file = self._crowd_rng.randrange(network.config.num_files)
        self.spike_queries = 0

    @property
    def spike_time_s(self) -> float:
        """Virtual time at which the crowd arrives."""
        return self._spike_time_s

    def _sample_file(self, origin: int) -> int:
        if (
            self._network.sim.now >= self._spike_time_s
            and self._crowd_rng.random() < self._spike_probability
        ):
            self.spike_queries += 1
            return self.hot_file
        return super()._sample_file(origin)


class RegionalHotspotWorkload(QueryWorkload):
    """Per-locId skewed demand: one locality hammers a small hot set.

    The hot region is the most populous locId (deterministic given the
    underlay); its peers direct ``hotspot_probability`` of their
    queries at a small hot set sampled from the catalog via the
    dedicated ``regional-hotspot`` stream.  Peers elsewhere keep the
    global Zipf behaviour — exactly the regime where Locaware's
    locId-aware provider selection should pay off (hot-set copies
    accumulate inside the region) and locality-blind caches should not.
    """

    def __init__(
        self,
        network: P2PNetwork,
        issue: IssueFn,
        max_queries: int | None = None,
        hotspot_probability: float = 0.8,
        hot_set_size: int = 10,
    ) -> None:
        if not (0.0 < hotspot_probability <= 1.0):
            raise ValueError(
                f"hotspot_probability must be in (0, 1], got {hotspot_probability}"
            )
        if hot_set_size < 1:
            raise ValueError(f"hot_set_size must be >= 1, got {hot_set_size}")
        super().__init__(network, issue, max_queries=max_queries)
        self._hotspot_probability = hotspot_probability
        self._region_rng = network.streams.stream("regional-hotspot")
        histogram = network.underlay.locid_histogram()
        # Most populous locId; ties break on the smaller id so the pick
        # is deterministic across processes.
        self.hot_locid = min(
            histogram, key=lambda locid: (-histogram[locid], locid)
        )
        size = min(hot_set_size, network.config.num_files)
        self.hot_files: tuple[int, ...] = tuple(
            sorted(self._region_rng.sample(range(network.config.num_files), size))
        )
        self.hotspot_queries = 0

    def _sample_file(self, origin: int) -> int:
        peer = self._network.peer(origin)
        if (
            peer.locid == self.hot_locid
            and self._region_rng.random() < self._hotspot_probability
        ):
            self.hotspot_queries += 1
            return self._region_rng.choice(self.hot_files)
        return super()._sample_file(origin)


class DiurnalWorkload(QueryWorkload):
    """Sinusoidal query-rate modulation (day/night load swing).

    The system arrival rate is the baseline Poisson rate multiplied by
    ``1 + amplitude * sin(2π · now / period_s)``.  ``amplitude`` must
    stay strictly below 1 so the factor — and therefore the rate, while
    any peer is alive — remains positive at every instant.

    ``period_s=None`` (the default) sets the period to the run's
    expected horizon, so every run sees one full day/night cycle
    whatever its scale.
    """

    def __init__(
        self,
        network: P2PNetwork,
        issue: IssueFn,
        max_queries: int | None = None,
        period_s: float | None = None,
        amplitude: float = 0.6,
    ) -> None:
        if period_s is not None and period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        if not (0.0 <= amplitude < 1.0):
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        super().__init__(network, issue, max_queries=max_queries)
        if period_s is None:
            horizon = expected_horizon_s(network.config, max_queries)
            period_s = horizon if horizon is not None else _DEFAULT_EVENT_TIME_S
        self._period_s = period_s
        self._amplitude = amplitude

    @property
    def period_s(self) -> float:
        """Length of one day/night cycle in virtual seconds."""
        return self._period_s

    @property
    def amplitude(self) -> float:
        """Relative swing of the rate around the baseline."""
        return self._amplitude

    def rate_factor(self, now: float) -> float:
        """The (always positive) modulation factor at virtual time ``now``."""
        return 1.0 + self._amplitude * math.sin(
            2.0 * math.pi * now / self._period_s
        )

    def _system_rate(self) -> float:
        return super()._system_rate() * self.rate_factor(self._network.sim.now)


class ShiftingZipfWorkload(QueryWorkload):
    """Poisson Zipf queries with periodic popularity shifts.

    Parameters
    ----------
    shift_interval_s:
        Virtual seconds between popularity re-draws.  The first shift
        happens one full interval after :meth:`start`.
    """

    def __init__(
        self,
        network: P2PNetwork,
        issue: Callable[[int, int, tuple[str, ...]], None],
        shift_interval_s: float,
        max_queries: int | None = None,
    ) -> None:
        if shift_interval_s <= 0:
            raise ValueError(
                f"shift_interval_s must be positive, got {shift_interval_s}"
            )
        super().__init__(network, issue, max_queries=max_queries)
        self._shift_interval_s = shift_interval_s
        self._shift_rng = network.streams.stream("popularity-shift")
        self.shifts = 0

    @property
    def shift_interval_s(self) -> float:
        """Seconds between popularity re-draws."""
        return self._shift_interval_s

    def start(self) -> None:
        """Arm query arrivals and the first popularity shift."""
        super().start()
        self._schedule_shift()

    def _schedule_shift(self) -> None:
        if self._max_queries is not None and self.generated >= self._max_queries:
            return
        self._network.sim.schedule(self._shift_interval_s, self._shift)

    def _shift(self) -> None:
        self.sampler.reshuffle(self._shift_rng)
        self.shifts += 1
        self._network.metrics.counter("workload.popularity_shifts").increment()
        tracer = self._network.tracer
        if tracer.enabled:
            tracer.emit(
                self._network.sim.now, "workload.shift", count=self.shifts
            )
        self._schedule_shift()
