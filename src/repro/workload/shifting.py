"""A workload whose popularity distribution drifts over time.

Gnutella measurements (the paper's refs [11, 15]) motivate index
caching with the *temporal locality* of queries: what is popular now
will be queried again soon.  But popularity is not stationary — hits
rise and fade.  :class:`ShiftingZipfWorkload` models that by
re-drawing the Zipf rank → file assignment at fixed intervals, keeping
the skew but rotating which files are hot.

This stresses precisely the machinery §4.1.2 argues for: recency-based
replacement lets response indexes follow the popular set, while a
frozen cache would keep serving yesterday's hits.  The paper does not
evaluate drift; this is a reproduction extension (ablation EXT2,
``repro ablation ext2``).
"""

from __future__ import annotations

from collections.abc import Callable

from ..overlay.network import P2PNetwork
from .generator import QueryWorkload

__all__ = ["ShiftingZipfWorkload"]


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
