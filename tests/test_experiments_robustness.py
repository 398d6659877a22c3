"""Tests for the multi-seed robustness sweep."""

import math

import pytest

from repro.analysis import PAPER_CLAIMS
from repro.experiments import run_seed_sweep, small_config
from repro.experiments.robustness import SeedSweepResult


@pytest.fixture(scope="module")
def sweep():
    base = small_config(seed=0).replace(query_rate_per_peer=0.02)
    return run_seed_sweep([11, 12], base=base, max_queries=100)


class TestRunSeedSweep:
    def test_counts_each_claim_per_seed(self, sweep):
        assert sweep.num_seeds == 2
        assert list(sweep.claim_passes) == [c.statement for c in PAPER_CLAIMS]
        for passes in sweep.claim_passes.values():
            assert type(passes) is int
            assert 0 <= passes <= 2

    def test_spreads_collected(self, sweep):
        assert list(sweep.spreads) == [c.spread for c in PAPER_CLAIMS if c.spread]
        for values in sweep.spreads.values():
            assert len(values) == 2
        for value in sweep.spreads["traffic reduction vs flooding"]:
            assert 0.0 < value < 1.0  # caching always reduces traffic

    def test_pass_rate(self, sweep):
        for claim in sweep.claim_passes:
            rate = sweep.pass_rate(claim)
            assert 0.0 <= rate <= 1.0

    def test_render_contains_claims_and_spreads(self, sweep):
        text = sweep.render()
        assert "Claim robustness over 2 seeds" in text
        assert "traffic reduction vs flooding" in text
        assert "/2" in text

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_seed_sweep([])

    def test_progress_callback_called(self):
        base = small_config(seed=0).replace(query_rate_per_peer=0.02)
        messages = []
        run_seed_sweep([5], base=base, max_queries=40, progress=messages.append)
        assert messages == ["seed 5..."]


class TestSeedSweepResult:
    def test_all_claims_always_hold(self):
        result = SeedSweepResult(seeds=[1, 2], max_queries=10)
        result.claim_passes = {"a": 2, "b": 2}
        assert result.all_claims_always_hold()
        result.claim_passes["b"] = 1
        assert not result.all_claims_always_hold()

    def test_pass_rate_empty(self):
        result = SeedSweepResult(seeds=[], max_queries=10)
        assert math.isnan(result.pass_rate("anything"))

    def test_render_handles_missing_spreads(self):
        result = SeedSweepResult(seeds=[1], max_queries=10)
        result.claim_passes = {"a": 1}
        text = result.render()
        assert "n/a" in text
