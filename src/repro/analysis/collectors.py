"""Turning raw query outcomes into the paper's three metrics.

Each finished query yields one :class:`~repro.protocols.base.
QueryOutcome`.  The figures plot, against the number of queries issued
so far:

- **Fig 2** — mean download distance over *successful* queries
  (requestor↔provider RTT, ms);
- **Fig 3** — mean messages per query (all queries);
- **Fig 4** — success rate (successes / submitted).

:func:`collect_series` buckets outcomes by their query ordinal so the
same run produces all three curves, each a :class:`Series` value.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..protocols.base import QueryOutcome

__all__ = [
    "Series",
    "MetricSeries",
    "collect_series",
    "summarize_outcomes",
    "OutcomeSummary",
]


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


@dataclass(frozen=True)
class Series:
    """One figure curve: a per-query metric bucketed by query ordinal.

    Query ``i`` (1-based) falls in bucket ``(i - 1) // bucket_width``.
    ``edges`` are the buckets' right edges up to the last bucket with
    a sample (with ``bucket_width=200`` and samples up to query 950:
    ``(200, 400, 600, 800, 1000)``); ``windowed`` is each bucket's
    mean (``nan`` for a bucket without samples), ``cumulative`` the
    mean of every sample up to each edge, and ``overall`` the mean of
    every sample (``nan`` when there are none).  A live run and one
    restored from its stored document hold equal values.
    """

    name: str
    bucket_width: int
    edges: tuple[int, ...]
    windowed: tuple[float, ...]
    cumulative: tuple[float, ...]
    sample_count: int
    overall: float


@dataclass
class MetricSeries:
    """The three figure series of one protocol run."""

    download_distance: Series
    search_traffic: Series
    success_rate: Series

    def bucket_edges(self) -> list[int]:
        """The common x-axis (#queries at each bucket's right edge)."""
        return list(self.search_traffic.edges)


def collect_series(
    outcomes: Sequence[QueryOutcome], bucket_width: int
) -> MetricSeries:
    """Bucket one run's outcomes into the three figure series.

    Success counts 1.0/0.0 per query so the bucket mean *is* the
    success rate.  Download distance counts only for successful
    queries (a failed query downloads nothing) that measured one.
    Bucket totals add up in outcome order, so the floats are a pure
    function of the outcome list.
    """
    if bucket_width < 1:
        raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
    distance: dict[int, list] = {}
    traffic: dict[int, list] = {}
    success: dict[int, list] = {}
    for outcome in outcomes:
        if outcome.index < 1:
            raise ValueError(f"query index must be >= 1, got {outcome.index}")
        key = (outcome.index - 1) // bucket_width
        _add(traffic, key, float(outcome.messages))
        _add(success, key, 1.0 if outcome.success else 0.0)
        if outcome.success and not math.isnan(outcome.download_distance_ms):
            if math.isinf(outcome.download_distance_ms):
                raise ValueError(
                    f"query {outcome.index} has an infinite download distance"
                )
            _add(distance, key, outcome.download_distance_ms)
    return MetricSeries(
        download_distance=_series("download_distance_ms", bucket_width, distance),
        search_traffic=_series("messages_per_query", bucket_width, traffic),
        success_rate=_series("success_rate", bucket_width, success),
    )


def _add(buckets: dict[int, list], key: int, value: float) -> None:
    bucket = buckets.get(key)
    if bucket is None:
        bucket = buckets[key] = [0.0, 0]
    bucket[0] += value
    bucket[1] += 1


def _series(name: str, bucket_width: int, buckets: dict[int, list]) -> Series:
    """Means of ``buckets`` (key → [total, count], keys in first-seen order)."""
    windowed: list[float] = []
    cumulative: list[float] = []
    total = 0.0
    count = 0
    for key in range(max(buckets, default=-1) + 1):
        bucket = buckets.get(key)
        if bucket is None:
            windowed.append(math.nan)
        else:
            windowed.append(bucket[0] / bucket[1])
            total += bucket[0]
            count += bucket[1]
        cumulative.append(total / count if count else math.nan)
    last_edge = len(windowed) * bucket_width
    return Series(
        name=name,
        bucket_width=bucket_width,
        edges=tuple(range(bucket_width, last_edge + 1, bucket_width)),
        windowed=tuple(windowed),
        cumulative=tuple(cumulative),
        sample_count=count,
        overall=(
            sum(bucket[0] for bucket in buckets.values()) / count if count else math.nan
        ),
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
