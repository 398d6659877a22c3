"""Turning raw query outcomes into the paper's three metrics.

Each finished query yields one :class:`~repro.protocols.base.
QueryOutcome`.  The figures plot, against the number of queries issued
so far:

- **Fig 2** — mean download distance over *successful* queries
  (requestor↔provider RTT, ms);
- **Fig 3** — mean messages per query (all queries);
- **Fig 4** — success rate (successes / submitted).

:func:`collect_series` buckets outcomes by their query ordinal so the
same run produces all three curves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..protocols.base import QueryOutcome
from ..sim.metrics import BucketedSeries

__all__ = ["MetricSeries", "collect_series", "summarize_outcomes", "OutcomeSummary"]


@dataclass(frozen=True)
class OutcomeSummary:
    """Whole-run aggregates of one protocol's outcomes."""

    queries: int
    successes: int
    success_rate: float
    mean_messages: float
    mean_download_distance_ms: float
    mean_responses: float

    @classmethod
    def empty(cls) -> OutcomeSummary:
        return cls(0, 0, math.nan, math.nan, math.nan, math.nan)


@dataclass
class MetricSeries:
    """The three bucketed series of one protocol run."""

    download_distance: BucketedSeries
    search_traffic: BucketedSeries
    success_rate: BucketedSeries

    def bucket_edges(self) -> list[int]:
        """The common x-axis (#queries at each bucket's right edge)."""
        return self.search_traffic.bucket_edges()


def collect_series(
    outcomes: Sequence[QueryOutcome], bucket_width: int
) -> MetricSeries:
    """Bucket one run's outcomes into the three figure series.

    Success is recorded as 1.0/0.0 per query so the bucket mean *is*
    the success rate.  Download distance is recorded only for
    successful queries (a failed query downloads nothing).
    """
    if bucket_width < 1:
        raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
    distance = BucketedSeries("download_distance_ms", bucket_width)
    traffic = BucketedSeries("messages_per_query", bucket_width)
    success = BucketedSeries("success_rate", bucket_width)
    for outcome in outcomes:
        traffic.record(outcome.index, float(outcome.messages))
        success.record(outcome.index, 1.0 if outcome.success else 0.0)
        if outcome.success and not math.isnan(outcome.download_distance_ms):
            distance.record(outcome.index, outcome.download_distance_ms)
    return MetricSeries(
        download_distance=distance, search_traffic=traffic, success_rate=success
    )


def summarize_outcomes(outcomes: Sequence[QueryOutcome]) -> OutcomeSummary:
    """Whole-run aggregates (the headline number of each figure)."""
    if not outcomes:
        return OutcomeSummary.empty()
    successes = [o for o in outcomes if o.success]
    distances = [
        o.download_distance_ms
        for o in successes
        if not math.isnan(o.download_distance_ms)
    ]
    return OutcomeSummary(
        queries=len(outcomes),
        successes=len(successes),
        success_rate=len(successes) / len(outcomes),
        mean_messages=sum(o.messages for o in outcomes) / len(outcomes),
        mean_download_distance_ms=(
            sum(distances) / len(distances) if distances else math.nan
        ),
        mean_responses=sum(o.responses for o in outcomes) / len(outcomes),
    )
