"""Workload classes backing the built-in scenarios.

Each class extends :class:`~repro.workload.generator.QueryWorkload`
through its two hooks — ``_sample_file`` (which file an arrival asks
for) and ``_system_rate`` (how fast arrivals come) — so arrival
mechanics and keyword picking stay identical to the paper's baseline
workload.  All extra randomness is drawn from
dedicated named streams, keeping the base ``workload``/``zipf``
streams byte-identical to a baseline run up to the point a scenario
diverges.
"""

from __future__ import annotations

import math

from ..overlay.network import P2PNetwork
from ..workload.generator import QueryWorkload
from .base import IssueFn, expected_horizon_s

__all__ = [
    "FlashCrowdWorkload",
    "RegionalHotspotWorkload",
    "DiurnalWorkload",
]

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
