"""The bucketed-series accumulator: the oracle of the figure series.

Until a run's figure series became one frozen value
(:class:`repro.analysis.collectors.Series`), each was a live
``BucketedSeries`` that recorded one sample per query and computed its
means on every read, and a restored run carried a look-alike with the
same four readers.  ``tests/test_property_series.py`` holds
:func:`repro.analysis.collectors.collect_series` to
:func:`reference_series` bit for bit, and a stored-and-restored run to
the same values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["BucketedSeries", "reference_series"]


@dataclass
class _Bucket:
    """Accumulator for one x-axis bucket of a :class:`BucketedSeries`."""

    total: float = 0.0
    count: int = 0

    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class BucketedSeries:
    """Samples bucketed by an integer key (the paper's "#queries" axis).

    Each sample is recorded with an *index* (the 1-based ordinal of the
    query that produced it).  Reading back, indices are grouped into
    fixed-width buckets: :meth:`windowed_means` is the mean over the
    samples inside each bucket, :meth:`cumulative_means` the mean over
    every sample up to the end of each bucket.
    """

    def __init__(self, name: str, bucket_width: int) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.name = name
        self.bucket_width = bucket_width
        self._buckets: dict[int, _Bucket] = {}
        self._max_index = 0

    def record(self, index: int, value: float) -> None:
        """Record ``value`` for the sample with 1-based ordinal ``index``."""
        if index < 1:
            raise ValueError(f"sample index must be >= 1, got {index}")
        if not math.isfinite(value):
            raise ValueError(f"series {self.name!r} got non-finite value {value!r}")
        key = (index - 1) // self.bucket_width
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[key] = bucket
        bucket.total += value
        bucket.count += 1
        if index > self._max_index:
            self._max_index = index

    @property
    def sample_count(self) -> int:
        """Total number of recorded samples."""
        return sum(b.count for b in self._buckets.values())

    def bucket_edges(self) -> list[int]:
        """Upper edge of each bucket up to the largest recorded index."""
        if not self._max_index:
            return []
        last_key = (self._max_index - 1) // self.bucket_width
        return [(k + 1) * self.bucket_width for k in range(last_key + 1)]

    def windowed_means(self) -> list[float]:
        """Per-bucket means, aligned with :meth:`bucket_edges`."""
        edges = self.bucket_edges()
        out: list[float] = []
        for k in range(len(edges)):
            bucket = self._buckets.get(k)
            out.append(bucket.mean() if bucket else math.nan)
        return out

    def cumulative_means(self) -> list[float]:
        """Cumulative means up to each bucket edge."""
        edges = self.bucket_edges()
        out: list[float] = []
        total = 0.0
        count = 0
        for k in range(len(edges)):
            bucket = self._buckets.get(k)
            if bucket is not None:
                total += bucket.total
                count += bucket.count
            out.append(total / count if count else math.nan)
        return out

    def overall_mean(self) -> float:
        """Mean across every recorded sample; ``nan`` when empty."""
        count = self.sample_count
        if not count:
            return math.nan
        total = sum(b.total for b in self._buckets.values())
        return total / count


def reference_series(outcomes: Sequence[Any], bucket_width: int) -> dict[str, BucketedSeries]:
    """The three figure series of ``outcomes``, recorded one query at a time.

    Keyed like the fields of :class:`repro.analysis.collectors.MetricSeries`.
    """
    distance = BucketedSeries("download_distance_ms", bucket_width)
    traffic = BucketedSeries("messages_per_query", bucket_width)
    success = BucketedSeries("success_rate", bucket_width)
    for outcome in outcomes:
        traffic.record(outcome.index, float(outcome.messages))
        success.record(outcome.index, 1.0 if outcome.success else 0.0)
        if outcome.success and not math.isnan(outcome.download_distance_ms):
            distance.record(outcome.index, outcome.download_distance_ms)
    return {
        "download_distance": distance,
        "search_traffic": traffic,
        "success_rate": success,
    }
