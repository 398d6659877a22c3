"""Unit tests for counters, summaries, and bucketed series."""

import math

import pytest

from repro.sim import BucketedSeries, Counter, MetricRegistry, Summary


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_increment_default_is_one(self):
        c = Counter("x")
        c.increment()
        assert c.value == 1

    def test_increment_by_amount(self):
        c = Counter("x")
        c.increment(5)
        c.increment(3)
        assert c.value == 8

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_value_counts_in_place(self):
        # The per-message form: same counter, no method call.
        c = Counter("x")
        c.value += 1
        c.increment(2)
        assert c.value == 3
        assert repr(c) == "Counter('x', value=3)"


class TestSummary:
    def test_empty_summary_is_nan(self):
        s = Summary("s")
        assert math.isnan(s.mean)
        assert math.isnan(s.min)
        assert math.isnan(s.max)

    def test_mean_of_samples(self):
        s = Summary("s")
        s.observe_many([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)

    def test_min_max(self):
        s = Summary("s")
        s.observe_many([5.0, -2.0, 3.0])
        assert s.min == -2.0
        assert s.max == 5.0

    def test_variance_matches_textbook(self):
        s = Summary("s")
        s.observe_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        # Known dataset: population variance 4, sample variance 32/7.
        assert s.variance == pytest.approx(32.0 / 7.0)

    def test_stddev_is_sqrt_variance(self):
        s = Summary("s")
        s.observe_many([1.0, 3.0])
        assert s.stddev == pytest.approx(math.sqrt(s.variance))

    def test_variance_needs_two_samples(self):
        s = Summary("s")
        s.observe(1.0)
        assert math.isnan(s.variance)

    def test_count_tracks_samples(self):
        s = Summary("s")
        s.observe_many(range(10))
        assert s.count == 10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Summary("s").observe(float("nan"))

    def test_streaming_matches_batch_mean(self):
        values = [0.1 * i for i in range(1000)]
        s = Summary("s")
        s.observe_many(values)
        assert s.mean == pytest.approx(sum(values) / len(values))


class TestBucketedSeries:
    def test_bucket_edges(self):
        series = BucketedSeries("d", bucket_width=200)
        series.record(1, 10.0)
        series.record(950, 10.0)
        assert series.bucket_edges() == [200, 400, 600, 800, 1000]

    def test_windowed_means(self):
        series = BucketedSeries("d", bucket_width=2)
        series.record(1, 10.0)
        series.record(2, 20.0)
        series.record(3, 30.0)
        series.record(4, 50.0)
        assert series.windowed_means() == [15.0, 40.0]

    def test_cumulative_means(self):
        series = BucketedSeries("d", bucket_width=2)
        series.record(1, 10.0)
        series.record(2, 20.0)
        series.record(3, 30.0)
        series.record(4, 40.0)
        assert series.cumulative_means() == [15.0, 25.0]

    def test_empty_bucket_is_nan_windowed(self):
        series = BucketedSeries("d", bucket_width=2)
        series.record(1, 10.0)
        series.record(5, 50.0)
        means = series.windowed_means()
        assert means[0] == 10.0
        assert math.isnan(means[1])
        assert means[2] == 50.0

    def test_empty_bucket_carries_cumulative(self):
        series = BucketedSeries("d", bucket_width=2)
        series.record(1, 10.0)
        series.record(5, 50.0)
        cums = series.cumulative_means()
        assert cums[1] == 10.0  # nothing new in bucket 2
        assert cums[2] == 30.0

    def test_boundary_index_lands_in_earlier_bucket(self):
        series = BucketedSeries("d", bucket_width=200)
        series.record(200, 1.0)
        assert series.bucket_edges() == [200]

    def test_index_just_past_boundary_opens_new_bucket(self):
        series = BucketedSeries("d", bucket_width=200)
        series.record(201, 1.0)
        assert series.bucket_edges() == [200, 400]

    def test_overall_mean(self):
        series = BucketedSeries("d", bucket_width=3)
        for i in range(1, 11):
            series.record(i, float(i))
        assert series.overall_mean() == pytest.approx(5.5)

    def test_overall_mean_empty_is_nan(self):
        assert math.isnan(BucketedSeries("d", 10).overall_mean())

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            BucketedSeries("d", 10).record(0, 1.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            BucketedSeries("d", 0)

    def test_sample_count(self):
        series = BucketedSeries("d", 10)
        for i in range(1, 8):
            series.record(i, 0.0)
        assert series.sample_count == 7


class TestMetricRegistry:
    def test_counter_is_memoised(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_summary_is_memoised(self):
        reg = MetricRegistry()
        assert reg.summary("a") is reg.summary("a")

    def test_series_requires_width_on_first_access(self):
        reg = MetricRegistry()
        with pytest.raises(KeyError):
            reg.series("missing")

    def test_series_width_conflict_rejected(self):
        reg = MetricRegistry()
        reg.series("s", bucket_width=10)
        with pytest.raises(ValueError):
            reg.series("s", bucket_width=20)

    def test_series_reaccess_without_width(self):
        reg = MetricRegistry()
        created = reg.series("s", bucket_width=10)
        assert reg.series("s") is created

    def test_snapshot_contains_counters_and_summaries(self):
        reg = MetricRegistry()
        reg.counter("msgs").increment(3)
        reg.summary("lat").observe(5.0)
        snap = reg.snapshot()
        assert snap["counter.msgs"] == 3.0
        assert snap["summary.lat.mean"] == 5.0
        assert snap["summary.lat.count"] == 1.0

    def test_name_listings_are_sorted(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.counter_names() == ["a", "b"]


class TestSnapshotDetail:
    def test_summary_min_max_stddev_exported(self):
        reg = MetricRegistry()
        reg.summary("lat").observe_many([1.0, 2.0, 3.0])
        snap = reg.snapshot()
        assert snap["summary.lat.min"] == 1.0
        assert snap["summary.lat.max"] == 3.0
        assert snap["summary.lat.stddev"] == pytest.approx(1.0)

    def test_empty_summary_detail_is_nan(self):
        reg = MetricRegistry()
        reg.summary("lat")
        snap = reg.snapshot()
        assert math.isnan(snap["summary.lat.min"])
        assert math.isnan(snap["summary.lat.max"])
        assert math.isnan(snap["summary.lat.stddev"])

    def test_series_overall_mean_and_sample_count(self):
        reg = MetricRegistry()
        series = reg.series("hops", bucket_width=10)
        series.record(1, 2.0)
        series.record(5, 4.0)
        series.record(15, 6.0)
        snap = reg.snapshot()
        assert snap["series.hops.overall_mean"] == pytest.approx(4.0)
        assert snap["series.hops.sample_count"] == 3.0
