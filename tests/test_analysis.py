"""Unit tests for analysis: collectors, tables, claim checks."""

import math
from types import SimpleNamespace

import pytest

from repro.analysis import (
    PAPER_CLAIMS,
    check_paper_claims,
    collect_series,
    format_percent,
    format_series_table,
    format_table,
    relative_change,
    render_claim_lines,
    summarize_outcomes,
)
from repro.analysis.collectors import OutcomeSummary
from repro.protocols import QueryOutcome


def outcome(index, success, distance=200.0, messages=10, responses=1):
    return QueryOutcome(
        query_id=index,
        index=index,
        origin=0,
        target_file=1,
        keywords=("kw",),
        issued_at=0.0,
        success=success,
        download_distance_ms=distance if success else math.nan,
        messages=messages,
        responses=responses,
        provider=5 if success else None,
        downloaded_file=1 if success else None,
    )


class TestCollectSeries:
    def test_success_rate_is_bucket_mean(self):
        outcomes = [outcome(i, success=(i % 2 == 0)) for i in range(1, 9)]
        series = collect_series(outcomes, bucket_width=4)
        assert series.success_rate.windowed_means() == [0.5, 0.5]

    def test_distance_only_for_successes(self):
        outcomes = [outcome(1, True, distance=100.0), outcome(2, False)]
        series = collect_series(outcomes, bucket_width=2)
        assert series.download_distance.sample_count == 1
        assert series.download_distance.windowed_means() == [100.0]

    def test_traffic_counts_all_queries(self):
        outcomes = [outcome(1, True, messages=10), outcome(2, False, messages=30)]
        series = collect_series(outcomes, bucket_width=2)
        assert series.search_traffic.windowed_means() == [20.0]

    def test_bucket_edges_follow_indices(self):
        outcomes = [outcome(i, True) for i in range(1, 11)]
        series = collect_series(outcomes, bucket_width=5)
        assert series.bucket_edges() == [5, 10]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            collect_series([], bucket_width=0)


class TestSummarize:
    def test_empty(self):
        summary = summarize_outcomes([])
        assert summary.queries == 0
        assert math.isnan(summary.success_rate)

    def test_aggregates(self):
        outcomes = [
            outcome(1, True, distance=100.0, messages=10, responses=2),
            outcome(2, False, messages=30, responses=0),
            outcome(3, True, distance=300.0, messages=20, responses=1),
        ]
        summary = summarize_outcomes(outcomes)
        assert summary.queries == 3
        assert summary.successes == 2
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.mean_messages == pytest.approx(20.0)
        assert summary.mean_download_distance_ms == pytest.approx(200.0)
        assert summary.mean_responses == pytest.approx(1.0)

    def test_all_failed_distance_nan(self):
        summary = summarize_outcomes([outcome(1, False)])
        assert math.isnan(summary.mean_download_distance_ms)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, 2 rows
        assert "1.50" in lines[2]
        assert "22.25" in lines[3]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_nan_rendering(self):
        text = format_table(["v"], [[math.nan]])
        assert "n/a" in text

    def test_format_series_table_columns(self):
        text = format_series_table(
            "#queries", [100, 200], {"flooding": [1.0, 2.0], "locaware": [3.0, 4.0]}
        )
        header = text.splitlines()[0]
        assert "#queries" in header
        assert "flooding" in header
        assert "locaware" in header

    def test_format_series_table_short_series_padded(self):
        text = format_series_table("#q", [1, 2], {"p": [5.0]})
        assert "n/a" in text

    def test_format_percent(self):
        assert format_percent(0.985) == "98.5%"
        assert format_percent(math.nan) == "n/a"


def paper_slice(
    loc_dist=200.0,
    dicas_dist=350.0,
    loc_rate=0.5,
    dicas_rate=0.4,
    keys_rate=0.35,
    keys_msgs=50.0,
    locaware_trend=(-0.2),
    locaware_start=280.0,
):
    """A hand-made comparison slice with the paper's shape."""
    from repro.analysis import ComparisonSlice, MetricSeries
    from repro.sim import BucketedSeries

    def summary(dist, msgs, rate):
        return OutcomeSummary(
            queries=100,
            successes=int(rate * 100),
            success_rate=rate,
            mean_messages=msgs,
            mean_download_distance_ms=dist,
            mean_responses=1.0,
        )

    def series(name):
        distance = BucketedSeries("d", 10)
        start = locaware_start if name == "locaware" else 300.0
        end = start * (1 + locaware_trend) if name == "locaware" else start
        for i in range(1, 11):
            distance.record(i, start)
        for i in range(11, 21):
            distance.record(i, end)
        traffic = BucketedSeries("t", 10)
        success = BucketedSeries("s", 10)
        for i in range(1, 21):
            traffic.record(i, 10.0)
            success.record(i, 1.0)
        return MetricSeries(distance, traffic, success)

    summaries = {
        "flooding": summary(370.0, 1000.0, 0.9),
        "dicas": summary(dicas_dist, 50.0, dicas_rate),
        "dicas-keys": summary(350.0, keys_msgs, keys_rate),
        "locaware": summary(loc_dist, 50.0, loc_rate),
    }
    runs = {
        name: SimpleNamespace(summary=s, series=series(name))
        for name, s in summaries.items()
    }
    return ComparisonSlice("baseline", 1, runs)


def check(checks, fragment):
    """The one check whose statement contains ``fragment``."""
    (found,) = [c for c in checks if fragment in c.claim]
    return found


class TestClaimChecks:
    def test_all_claims_pass_on_paper_shaped_data(self):
        checks = check_paper_claims(paper_slice())
        assert [c.claim for c in checks] == [c.statement for c in PAPER_CLAIMS]
        assert all(c.holds for c in checks)

    def test_distance_claim_fails_when_locaware_worse(self):
        checks = check_paper_claims(paper_slice(loc_dist=400.0))
        assert not check(checks, "below every baseline").holds

    def test_distance_claim_fails_on_a_baseline_without_downloads(self):
        checks = check_paper_claims(paper_slice(dicas_dist=math.nan))
        distance = check(checks, "below every baseline")
        assert not distance.holds
        assert "dicas=n/a" in distance.detail

    def test_distance_must_stay_below_flooding_in_both_halves(self):
        checks = check_paper_claims(paper_slice())
        halves = check(checks, "both halves")
        assert halves.holds
        assert halves.detail == (
            "reduction vs flooding: first half=+6.7%, second half=+25.3%"
        )
        assert halves.value == pytest.approx(20.0 / 300.0)
        # Better on average and improving, but above flooding at first.
        checks = check_paper_claims(paper_slice(locaware_start=320.0))
        assert not check(checks, "both halves").holds
        assert check(checks, "improves").holds
        assert check(checks, "below every baseline").holds

    def test_trend_claim_fails_when_flat(self):
        checks = check_paper_claims(paper_slice(locaware_trend=0.0))
        assert not check(checks, "improves").holds

    def test_success_ordering_claims(self):
        checks = check_paper_claims(paper_slice(loc_rate=0.3, dicas_rate=0.4))
        assert not check(checks, "beats Dicas on").holds

    def test_flooding_must_be_strictly_best(self):
        checks = check_paper_claims(paper_slice(loc_rate=0.9))
        assert not check(checks, "flooding has the best").holds
        assert check(checks, "beats Dicas on").holds

    def test_every_caching_protocol_must_cut_traffic(self):
        checks = check_paper_claims(paper_slice(keys_msgs=120.0))
        assert not check(checks, "dicas-keys cuts").holds
        assert check(checks, "dicas cuts").holds
        assert check(checks, "within 3x").holds

    def test_caching_protocols_must_stay_within_3x(self):
        checks = check_paper_claims(paper_slice(keys_msgs=95.0))
        spread = check(checks, "within 3x")
        assert spread.holds and spread.value == pytest.approx(1.9)
        checks = check_paper_claims(paper_slice(keys_msgs=150.0))
        spread = check(checks, "within 3x")
        assert not spread.holds
        assert spread.detail.startswith("max/min = 3.00x (dicas=50.0, ")

    def test_headline_values_are_the_spread_quantities(self):
        checks = check_paper_claims(paper_slice())
        assert check(checks, "locaware cuts").value == pytest.approx(0.95)
        assert check(checks, "below every baseline").value == pytest.approx(
            170.0 / 370.0
        )
        assert check(checks, "beats Dicas on").value == pytest.approx(0.25)

    def test_figure_selects_its_rows(self):
        for figure in ("fig2", "fig3", "fig4"):
            checks = check_paper_claims(paper_slice(), figure)
            assert [c.claim for c in checks] == [
                c.statement for c in PAPER_CLAIMS if c.figure == figure
            ]
            assert checks
        assert check_paper_claims(paper_slice(), "fig9") == []

    def test_missing_protocol_rejected(self):
        result = paper_slice()
        del result.runs["dicas"]
        with pytest.raises(ValueError, match="dicas"):
            check_paper_claims(result)

    def test_equal_checks_compare_equal_despite_nan_values(self):
        a = check_paper_claims(paper_slice())
        b = check_paper_claims(paper_slice())
        assert a == b
        assert math.isnan(check(a, "flooding has the best").value)


class TestClaimTable:
    """The one declaration every claim surface reads."""

    def test_rows_are_unique_and_belong_to_a_figure(self):
        from repro.experiments import FIGURES

        statements = [c.statement for c in PAPER_CLAIMS]
        assert len(set(statements)) == len(statements)
        ids = [figure.EXPERIMENT_ID for figure in FIGURES]
        assert {c.figure for c in PAPER_CLAIMS} == set(ids)
        # Rows run in figure order, so every surface prints them so.
        assert [c.figure for c in PAPER_CLAIMS] == sorted(
            (c.figure for c in PAPER_CLAIMS), key=ids.index
        )

    def test_spread_labels_are_unique(self):
        labels = [c.spread for c in PAPER_CLAIMS if c.spread]
        assert len(set(labels)) == len(labels) == 4

    def test_render_claim_lines(self):
        from repro.analysis import ClaimCheck

        checks = [
            ClaimCheck("A", True, "a detail", 0.5),
            ClaimCheck("B", False, "b detail", math.nan),
        ]
        assert render_claim_lines(checks) == (
            "[PASS] A\n       a detail\n[FAIL] B\n       b detail\n"
            "\n1/2 paper claims hold"
        )


class TestRelativeChange:
    def test_basic(self):
        assert relative_change(110.0, 100.0) == pytest.approx(0.1)
        assert relative_change(90.0, 100.0) == pytest.approx(-0.1)

    def test_nan_propagation(self):
        assert math.isnan(relative_change(math.nan, 100.0))
        assert math.isnan(relative_change(100.0, 0.0))
