"""Unit tests for analysis: collectors, tables, claim checks."""

import dataclasses
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
        assert series.success_rate.windowed == (0.5, 0.5)

    def test_distance_only_for_successes(self):
        outcomes = [outcome(1, True, distance=100.0), outcome(2, False)]
        series = collect_series(outcomes, bucket_width=2)
        assert series.download_distance.sample_count == 1
        assert series.download_distance.windowed == (100.0,)

    def test_traffic_counts_all_queries(self):
        outcomes = [outcome(1, True, messages=10), outcome(2, False, messages=30)]
        series = collect_series(outcomes, bucket_width=2)
        assert series.search_traffic.windowed == (20.0,)

    def test_bucket_edges_follow_indices(self):
        outcomes = [outcome(i, True) for i in range(1, 11)]
        series = collect_series(outcomes, bucket_width=5)
        assert series.bucket_edges() == [5, 10]

    def test_boundary_index_lands_in_the_earlier_bucket(self):
        assert collect_series([outcome(200, True)], 200).bucket_edges() == [200]
        assert collect_series([outcome(201, True)], 200).bucket_edges() == [200, 400]

    def test_a_bucket_without_samples_is_nan_and_carries_the_cumulative(self):
        outcomes = [outcome(1, True, distance=10.0), outcome(5, True, distance=50.0)]
        distance = collect_series(outcomes, bucket_width=2).download_distance
        assert distance.edges == (2, 4, 6)
        assert distance.windowed[::2] == (10.0, 50.0)
        assert math.isnan(distance.windowed[1])
        assert distance.cumulative == (10.0, 10.0, 30.0)
        assert distance.overall == 30.0

    def test_no_outcomes_give_empty_series(self):
        series = collect_series([], bucket_width=10)
        for curve in (series.download_distance, series.search_traffic):
            assert (curve.edges, curve.windowed, curve.cumulative) == ((), (), ())
            assert curve.sample_count == 0
            assert math.isnan(curve.overall)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            collect_series([], bucket_width=0)

    def test_invalid_index_or_distance(self):
        with pytest.raises(ValueError, match="index"):
            collect_series([outcome(0, True)], bucket_width=1)
        with pytest.raises(ValueError, match="infinite"):
            collect_series([outcome(1, True, distance=math.inf)], bucket_width=1)


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
    from repro.analysis import ComparisonSlice

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
        start = locaware_start if name == "locaware" else 300.0
        end = start * (1 + locaware_trend) if name == "locaware" else start
        outcomes = [
            outcome(i, True, distance=start if i <= 10 else end, messages=10)
            for i in range(1, 21)
        ]
        return collect_series(outcomes, bucket_width=10)

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


def statements(figure=None):
    """The printed statement of every figure row (only ``figure``'s, if given)."""
    return [
        f"{tag.capitalize()}: {claim.text}"
        for tag, claims in PAPER_CLAIMS.items()
        if figure in (None, tag)
        for claim in claims
    ]


class TestClaimChecks:
    """How the figure table is read off a slice; the rows' thresholds are
    mutation-checked in ``test_experiments_ablations.py``."""

    def test_all_claims_pass_on_paper_shaped_data(self):
        checks = check_paper_claims(paper_slice())
        assert [c.claim for c in checks] == statements()
        assert all(c.holds for c in checks)

    def test_distance_claim_fails_on_a_baseline_without_downloads(self):
        checks = check_paper_claims(paper_slice(dicas_dist=math.nan))
        distance = check(checks, "below every baseline")
        assert not distance.holds
        assert "dist_ms[locaware] vs dist_ms[dicas]: 200 < nan" in distance.detail

    def test_distance_must_stay_below_flooding_in_both_halves(self):
        checks = check_paper_claims(paper_slice())
        halves = check(checks, "both halves")
        assert halves.holds
        assert halves.detail == (
            "dist_ms 1st half[locaware] vs dist_ms 1st half[flooding]: 280 < 300; "
            "dist_ms 2nd half[locaware] vs dist_ms 2nd half[flooding]: 224 < 300"
        )
        assert halves.value == pytest.approx(20.0 / 300.0)
        # Better on average and improving, but above flooding at first.
        checks = check_paper_claims(paper_slice(locaware_start=320.0))
        assert not check(checks, "both halves").holds
        assert check(checks, "improves").holds
        assert check(checks, "below every baseline").holds

    def test_trend_claim_fails_when_flat(self):
        checks = check_paper_claims(paper_slice(locaware_trend=0.0))
        improves = check(checks, "improves")
        assert not improves.holds
        assert improves.value == 0.0

    def test_a_series_too_short_to_split_refutes_the_half_rows(self):
        result = paper_slice()
        short = collect_series([outcome(i, True) for i in range(1, 11)], bucket_width=10)
        result.runs["locaware"].series = dataclasses.replace(
            result.runs["locaware"].series, download_distance=short.download_distance
        )
        checks = check_paper_claims(result)
        for fragment in ("both halves", "improves"):
            assert not check(checks, fragment).holds
            assert math.isnan(check(checks, fragment).value)
        assert check(checks, "below every baseline").holds

    def test_caching_protocols_must_stay_within_3x(self):
        checks = check_paper_claims(paper_slice(keys_msgs=95.0))
        spread = check(checks, "within 3x")
        assert spread.holds and spread.value == pytest.approx(0.9)
        checks = check_paper_claims(paper_slice(keys_msgs=150.0))
        spread = check(checks, "within 3x")
        assert not spread.holds
        assert spread.value == pytest.approx(2.0)
        assert "msgs/lightest[dicas-keys]: 3 < 3" in spread.detail

    def test_headline_values_are_the_spread_quantities(self):
        checks = check_paper_claims(paper_slice())
        assert check(checks, "locaware cuts").value == pytest.approx(0.95)
        assert check(checks, "below every baseline").value == pytest.approx(
            170.0 / 370.0
        )
        assert check(checks, "improves").value == pytest.approx(-0.2)
        assert check(checks, "beats Dicas on").value == pytest.approx(0.25)
        assert check(checks, "within 3x").value == 0.0

    def test_figure_selects_its_rows(self):
        for figure in ("fig2", "fig3", "fig4"):
            checks = check_paper_claims(paper_slice(), figure)
            assert [c.claim for c in checks] == statements(figure)
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

        assert len(set(statements())) == len(statements())
        # Rows run in figure order, so every surface prints them so.
        assert list(PAPER_CLAIMS) == [figure.EXPERIMENT_ID for figure in FIGURES]
        assert all(PAPER_CLAIMS.values())

    def test_render_claim_lines(self):
        from repro.analysis import ClaimCheck, claim_verdicts

        checks = [
            ClaimCheck("A", True, "a detail", 0.5),
            ClaimCheck("B", False, "b detail", math.nan),
        ]
        assert render_claim_lines(claim_verdicts({1: checks})) == (
            "[PASS] A\n       a detail\n[FAIL] B\n       b detail\n"
            "\n1/2 claims hold"
        )

    def test_the_traffic_spread_prints_as_an_excess(self):
        """Regression: the "within 3x" headline was the max/min ratio, so
        its spread over seeds printed 1.04 as "104.0%"."""
        from repro.analysis import claim_verdicts

        verdicts = claim_verdicts({
            seed: check_paper_claims(paper_slice(keys_msgs=msgs))
            for seed, msgs in ((1, 52.0), (2, 53.0), (3, 54.5))
        })
        lines = render_claim_lines(verdicts).splitlines()
        row = lines.index(
            "[PASS] Fig3: the three caching protocols' traffic is within 3x "
            "of each other  (3/3 seeds)"
        )
        assert lines[row + 1] == (
            "       min/mean/max 4.0% / 6.3% / 9.0%; no seed failed"
        )


class TestRelativeChange:
    def test_basic(self):
        assert relative_change(110.0, 100.0) == pytest.approx(0.1)
        assert relative_change(90.0, 100.0) == pytest.approx(-0.1)

    def test_nan_propagation(self):
        assert math.isnan(relative_change(math.nan, 100.0))
        assert math.isnan(relative_change(100.0, 0.0))
