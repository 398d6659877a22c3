"""Unit tests for the Zipf sampler."""

import random
from collections import Counter

import pytest

from repro.workload import ZipfSampler


class TestZipfSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 1.0, random.Random(1))
        for _ in range(500):
            assert 0 <= sampler.sample() < 100

    def test_deterministic(self):
        a = ZipfSampler(100, 1.0, random.Random(3)).sample_many(50)
        b = ZipfSampler(100, 1.0, random.Random(3)).sample_many(50)
        assert a == b

    def test_one_cdf_per_population(self):
        """The CDF is shared by equal populations; the rank shuffle is not."""
        a = ZipfSampler(100, 1.0, random.Random(3))
        b = ZipfSampler(100, 1.0, random.Random(4))
        assert a._cdf is b._cdf
        assert a._rank_to_item != b._rank_to_item
        assert ZipfSampler(100, 1, random.Random(3))._cdf is not a._cdf
        assert ZipfSampler(100, 1.2, random.Random(3))._cdf != a._cdf

    def test_rank1_probability_matches_theory(self):
        """P(rank 1) = (1/1) / H_{n,s}."""
        n, s = 1000, 1.0
        sampler = ZipfSampler(n, s, random.Random(5))
        harmonic = sum(1.0 / (r**s) for r in range(1, n + 1))
        assert sampler.probability_of_rank(1) == pytest.approx(1.0 / harmonic)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 1.2, random.Random(5))
        total = sum(sampler.probability_of_rank(r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_popularity_decreasing_in_rank(self):
        sampler = ZipfSampler(100, 1.0, random.Random(7))
        probs = [sampler.probability_of_rank(r) for r in range(1, 101)]
        assert probs == sorted(probs, reverse=True)

    def test_empirical_skew(self):
        """The top-ranked item must dominate draws (Zipf's whole point)."""
        sampler = ZipfSampler(100, 1.0, random.Random(9))
        counts = Counter(sampler.sample_many(20000))
        top_item = sampler.item_at_rank(1)
        expected = sampler.probability_of_rank(1)
        observed = counts[top_item] / 20000
        assert observed == pytest.approx(expected, rel=0.15)

    def test_paper_pool_draws(self):
        """10k draws over §5.1's 3000 files stay in range and keep the
        top rank's share."""
        sampler = ZipfSampler(3000, 1.0, random.Random(1))
        draws = sampler.sample_many(10_000)
        assert min(draws) >= 0 and max(draws) < 3000
        observed = draws.count(sampler.item_at_rank(1)) / len(draws)
        assert observed == pytest.approx(sampler.probability_of_rank(1), rel=0.15)

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, random.Random(11))
        for r in range(1, 11):
            assert sampler.probability_of_rank(r) == pytest.approx(0.1)

    def test_rank_mapping_roundtrip(self):
        sampler = ZipfSampler(30, 1.0, random.Random(13))
        for rank in (1, 5, 30):
            assert sampler.rank_of(sampler.item_at_rank(rank)) == rank

    def test_rank_permutation_decorrelates_ids(self):
        """Item 0 should not systematically be the most popular."""
        top_items = {
            ZipfSampler(100, 1.0, random.Random(seed)).item_at_rank(1)
            for seed in range(10)
        }
        assert len(top_items) > 1

    def test_invalid_args_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5, rng)
        sampler = ZipfSampler(10, 1.0, rng)
        with pytest.raises(ValueError):
            sampler.probability_of_rank(0)
        with pytest.raises(ValueError):
            sampler.item_at_rank(11)
        with pytest.raises(ValueError):
            sampler.sample_many(-1)
