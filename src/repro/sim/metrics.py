"""Metric primitives: counters, summaries, and bucketed series.

The paper's three figures all plot a per-query metric against the
*number of queries issued so far*.  :class:`BucketedSeries` implements
exactly that aggregation: record one sample per query, then read back
per-bucket means (e.g. mean download distance for queries 1–200,
201–400, ...), either as windowed or cumulative values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

__all__ = ["Counter", "Summary", "BucketedSeries", "MetricRegistry"]


class Counter:
    """A monotonically increasing named counter.

    ``value`` (the current count) is a plain attribute, so per-message
    code can count in place (``counter.value += 1``) instead of paying
    a method call; :meth:`increment` is the checked form.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"Counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Summary:
    """Streaming summary statistics (count/mean/min/max/variance).

    Uses Welford's online algorithm so it is numerically stable for
    long runs and needs O(1) memory.
    """

    __slots__ = ("name", "_count", "_mean", "_m2", "_min", "_max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Add one sample."""
        if not math.isfinite(value):
            raise ValueError(f"Summary {self.name!r} observed non-finite value {value!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Add a batch of samples."""
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` when empty."""
        return self._mean if self._count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance; ``nan`` with fewer than 2 samples."""
        if self._count < 2:
            return math.nan
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def min(self) -> float:
        """Smallest sample; ``nan`` when empty."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest sample; ``nan`` when empty."""
        return self._max if self._count else math.nan

    def __repr__(self) -> str:
        if not self._count:
            return f"Summary({self.name!r}, empty)"
        return (
            f"Summary({self.name!r}, n={self._count}, mean={self.mean:.4g}, "
            f"min={self.min:.4g}, max={self.max:.4g})"
        )


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
    fixed-width buckets.  Two read modes match the two natural ways of
    plotting the paper's figures:

    - :meth:`windowed_means` — mean over samples whose index falls
      inside each bucket (shows evolution over time);
    - :meth:`cumulative_means` — mean over all samples up to the end of
      each bucket (what a "after N queries" reading reports).
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
        """Upper edge of each bucket up to the largest recorded index.

        E.g. with ``bucket_width=200`` and samples up to index 950 this
        is ``[200, 400, 600, 800, 1000]``.
        """
        if not self._max_index:
            return []
        last_key = (self._max_index - 1) // self.bucket_width
        return [(k + 1) * self.bucket_width for k in range(last_key + 1)]

    def windowed_means(self) -> list[float]:
        """Per-bucket means, aligned with :meth:`bucket_edges`.

        Buckets with no samples yield ``nan``.
        """
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

    def __repr__(self) -> str:
        return (
            f"BucketedSeries({self.name!r}, width={self.bucket_width}, "
            f"samples={self.sample_count})"
        )


class MetricRegistry:
    """A namespace of counters, summaries, and series for one simulation run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._summaries: dict[str, Summary] = {}
        self._series: dict[str, BucketedSeries] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def summary(self, name: str) -> Summary:
        """Get or create the summary registered under ``name``."""
        summary = self._summaries.get(name)
        if summary is None:
            summary = Summary(name)
            self._summaries[name] = summary
        return summary

    def series(self, name: str, bucket_width: int | None = None) -> BucketedSeries:
        """Get or create the bucketed series registered under ``name``.

        ``bucket_width`` is required on first access and must not
        conflict on later accesses.
        """
        series = self._series.get(name)
        if series is None:
            if bucket_width is None:
                raise KeyError(f"series {name!r} does not exist and no bucket_width given")
            series = BucketedSeries(name, bucket_width)
            self._series[name] = series
        elif bucket_width is not None and bucket_width != series.bucket_width:
            raise ValueError(
                f"series {name!r} already exists with bucket_width={series.bucket_width}, "
                f"requested {bucket_width}"
            )
        return series

    def counter_names(self) -> list[str]:
        """Sorted names of every registered counter."""
        return sorted(self._counters)

    def snapshot(self) -> dict[str, float]:
        """Flat dict of every registered metric, for reports.

        Counters contribute their value; summaries their full statistics
        (``mean``/``count``/``min``/``max``/``stddev``, the latter three
        ``nan`` when undersampled); series their ``overall_mean`` and
        ``sample_count``.
        """
        out: dict[str, float] = {}
        for name, counter in self._counters.items():
            out[f"counter.{name}"] = float(counter.value)
        for name, summary in self._summaries.items():
            out[f"summary.{name}.mean"] = summary.mean
            out[f"summary.{name}.count"] = float(summary.count)
            out[f"summary.{name}.min"] = summary.min
            out[f"summary.{name}.max"] = summary.max
            out[f"summary.{name}.stddev"] = summary.stddev
        for name, series in self._series.items():
            out[f"series.{name}.overall_mean"] = series.overall_mean()
            out[f"series.{name}.sample_count"] = float(series.sample_count)
        return out
