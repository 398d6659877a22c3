"""The referee: the claim table judged per seed, from any source.

:func:`repro.analysis.claim_verdicts` turns one table's checks on n
seeds into one verdict per row (holds on every seed, fails on every
seed, or unresolved), :func:`repro.analysis.check_report` applies it to
every row label of a grid report, and ``repro grid check`` prints it
for a stored grid.  A live grid and its stored cells must agree.
"""

import io
import math

import pytest

from repro.analysis import (
    ClaimCheck,
    check_report,
    claim_verdicts,
    render_claim_lines,
)
from repro.cli import main
from repro.experiments import GridRunner, GridSpec, small_config
from repro.results import ResultStore
from test_analysis import statements


def checks(*rows):
    """One seed's checks: ``(holds, value)`` per row, rows named A, B, …"""
    return [
        ClaimCheck(chr(ord("A") + i), holds, f"detail {i}", value)
        for i, (holds, value) in enumerate(rows)
    ]


class TestClaimVerdicts:
    def test_holds_fails_and_unresolved(self):
        held, failed, split = claim_verdicts({
            1: checks((True, 0.1), (False, 0.1), (True, 0.1)),
            2: checks((True, 0.2), (False, 0.2), (False, 0.2)),
            3: checks((True, 0.3), (False, 0.3), (True, 0.3)),
        })
        assert (held.held, held.holds) == (3, True)
        assert (failed.held, failed.holds) == (0, False)
        assert (split.held, split.holds) == (2, False)

    def test_failing_seeds_are_named(self):
        (verdict,) = claim_verdicts({
            7: checks((False, 0.0)), 8: checks((True, 0.0)), 9: checks((False, 0.0)),
        })
        assert verdict.failed_seeds == [7, 9]
        assert render_claim_lines([verdict]) == (
            "[UNRESOLVED] A  (1/3 seeds)\n"
            "       min/mean/max 0.0% / 0.0% / 0.0%; failed on seed(s) 7, 9\n"
            "\n0/1 claims hold on all 3 seeds; 0 fail on all, 1 unresolved"
        )

    def test_a_nan_is_left_out_of_the_spread(self):
        (verdict,) = claim_verdicts({
            1: checks((True, 0.1)), 2: checks((True, math.nan)), 3: checks((True, 0.4)),
        })
        assert verdict.spread == pytest.approx((0.1, 0.25, 0.4))
        nan = checks((True, math.nan))
        (verdict,) = claim_verdicts({1: nan, 2: nan})
        assert verdict.spread is None
        assert render_claim_lines([verdict]) == (
            "[PASS] A  (2/2 seeds)\n       no seed failed\n"
            "\n1/1 claims hold on all 2 seeds; 0 fail on all, 0 unresolved"
        )

    def test_one_seed_renders_as_the_one_seed_lines(self):
        one = checks((True, 0.5), (False, math.nan))
        assert render_claim_lines(claim_verdicts({20090322: one})) == (
            "[PASS] A\n       detail 0\n[FAIL] B\n       detail 1\n"
            "\n1/2 claims hold"
        )

    def test_an_empty_seed_axis_is_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            claim_verdicts({})
        with pytest.raises(ValueError, match="seed"):
            GridSpec(base_config=small_config(), seeds=())


@pytest.fixture(scope="module")
def live():
    """A 4-protocol, 2-seed small grid, run live."""
    return GridRunner(
        GridSpec(base_config=small_config(), seeds=(1, 2), max_queries=40)
    ).run()


def _text(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheckReport:
    def test_one_verdict_per_row_with_counts_in_range(self, live):
        (row, verdicts), = check_report(live).items()
        assert row == "baseline"
        assert [v.claim for v in verdicts] == statements()
        for verdict in verdicts:
            assert type(verdict.held) is int
            assert 0 <= verdict.held <= 2
            assert [seed for seed, _check in verdict.checks] == [1, 2]

    def test_traffic_reduction_spread_is_a_fraction(self, live):
        verdicts = check_report(live)["baseline"]
        (traffic,) = [v for v in verdicts if v.claim.startswith("Fig3: locaware cuts")]
        low, mean, high = traffic.spread
        assert 0.0 < low <= mean <= high < 1.0  # caching always reduces traffic

    def test_live_and_stored_give_one_answer(self, live, tmp_path):
        expected = check_report(live)
        axes = ("--store", str(tmp_path / "store"), "--config", "small",
                "--seeds", "1", "2", "--queries", "40")
        assert _text("grid", "run", *axes)[0] == 0
        loaded = GridRunner(live.spec, store=ResultStore(tmp_path / "store")).run()
        assert (loaded.executed, loaded.cached) == (0, live.num_cells)
        assert check_report(loaded) == expected
        assert [v.spread for v in check_report(loaded)["baseline"]] == [
            v.spread for v in expected["baseline"]
        ]

        stored = _text("grid", "check", *axes)
        held = all(v.holds for v in expected["baseline"])
        assert stored == (
            int(not held), render_claim_lines(expected["baseline"]) + "\n"
        )
