"""Unit tests for Bloom filter parameter math."""

import math

import pytest

from repro.bloom import element_mask, elements_mask, false_positive_rate


class TestFalsePositiveRate:
    def test_empty_filter_never_false_positive(self):
        assert false_positive_rate(1200, 4, 0) == 0.0

    def test_paper_regime_is_low(self):
        """§5.1: 1200 bits for ~150 keywords is a 'negligible' cost with
        useful accuracy — FPR should be a few percent."""
        assert false_positive_rate(1200, 4, 150) < 0.03

    def test_rate_increases_with_load(self):
        assert false_positive_rate(1200, 4, 300) > false_positive_rate(1200, 4, 100)

    def test_rate_decreases_with_bits(self):
        assert false_positive_rate(2400, 4, 150) < false_positive_rate(1200, 4, 150)

    def test_bounds(self):
        rate = false_positive_rate(100, 3, 1000)
        assert 0.0 <= rate <= 1.0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            false_positive_rate(0, 4, 10)
        with pytest.raises(ValueError):
            false_positive_rate(100, 0, 10)
        with pytest.raises(ValueError):
            false_positive_rate(100, 4, -1)



def least_rate_hashes(bits, inserted):
    """The hash count at which ``false_positive_rate`` is least."""
    return min(range(1, 64), key=lambda k: false_positive_rate(bits, k, inserted))


def fill(bits, hashes, inserted):
    """Fraction of bits set once ``inserted`` distinct keywords are in."""
    keywords = (f"kw{i:06d}" for i in range(inserted))
    return elements_mask(keywords, bits, hashes).bit_count() / bits


class TestOptimalHashCount:
    """The rate is least at k = (m/n)·ln 2, as the module docstring says."""

    def test_known_value(self):
        # m/n = 8 => k* = 8 ln2 ≈ 5.5 => 6.
        assert least_rate_hashes(1200, 150) == 6

    def test_at_least_one(self):
        assert least_rate_hashes(8, 1000) == 1

    @pytest.mark.parametrize(
        ("bits", "inserted"), [(2400, 150), (1200, 300), (600, 150), (1200, 50)]
    )
    def test_least_at_m_over_n_ln2(self, bits, inserted):
        k_star = bits / inserted * math.log(2)
        assert least_rate_hashes(bits, inserted) in (
            math.floor(k_star),
            math.ceil(k_star),
        )


class TestRecommendedBits:
    """§5.1's sizing: 1200 bits for 150 keywords is a ~2 % filter."""

    def test_achieves_target(self):
        n = 150
        m = math.ceil(-n * math.log(0.02) / math.log(2) ** 2)
        assert m == 1222
        k = round(m / n * math.log(2))
        assert false_positive_rate(m, k, n) == pytest.approx(0.02, abs=0.001)

    def test_paper_filter_at_its_optimum_and_at_four_hashes(self):
        assert false_positive_rate(1200, 6, 150) == pytest.approx(0.0216, abs=0.001)
        assert false_positive_rate(1200, 4, 150) == pytest.approx(0.024, abs=0.001)


class TestFillFraction:
    """A real filter's fill and false-positive rate follow the formula."""

    @pytest.mark.parametrize("inserted", [50, 150, 300])
    def test_fill_is_one_minus_e_to_the_minus_kn_over_m(self, inserted):
        expected = 1.0 - math.exp(-4 * inserted / 1200)
        assert fill(1200, 4, inserted) == pytest.approx(expected, abs=0.02)

    def test_approaches_one(self):
        assert fill(100, 4, 10000) > 0.99

    def test_half_filled_at_optimum(self):
        assert fill(1200, 6, 150) == pytest.approx(0.5, abs=0.05)

    def test_measured_rate_matches_the_formula(self):
        vector = elements_mask((f"kw{i:06d}" for i in range(150)), 1200, 4)
        probes = [element_mask(f"absent{i:06d}", 1200, 4) for i in range(5000)]
        measured = sum(vector & mask == mask for mask in probes) / len(probes)
        assert measured == pytest.approx(false_positive_rate(1200, 4, 150), abs=0.01)
