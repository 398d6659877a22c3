"""Unit tests for the counting Bloom filter."""

import pytest

from repro.bloom import BloomFilter, CountingBloomFilter


class TestInsertRemove:
    def test_add_then_contains(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add("kw1")
        assert "kw1" in cbf

    def test_remove_clears_membership(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add("kw1")
        cbf.remove("kw1")
        assert "kw1" not in cbf

    def test_shared_bits_survive_removal(self):
        """Removing one element must not evict another (the whole point
        of counting over plain bits)."""
        cbf = CountingBloomFilter(8, 4)  # tiny filter => heavy bit sharing
        cbf.add("alpha")
        cbf.add("beta")
        cbf.remove("alpha")
        assert "beta" in cbf

    def test_multiset_semantics(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add("kw1")
        cbf.add("kw1")
        cbf.remove("kw1")
        assert "kw1" in cbf  # one occurrence left
        cbf.remove("kw1")
        assert "kw1" not in cbf

    def test_remove_absent_raises(self):
        cbf = CountingBloomFilter(512, 4)
        with pytest.raises(KeyError):
            cbf.remove("never-added")

    def test_remove_after_full_removal_raises(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add("kw1")
        cbf.remove("kw1")
        with pytest.raises(KeyError):
            cbf.remove("kw1")

    def test_discard_returns_flag(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add("kw1")
        assert cbf.discard("kw1") is True
        assert cbf.discard("kw1") is False

    def test_element_counts(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["a", "b", "a"])
        assert cbf.element_count == 3
        assert cbf.distinct_element_count == 2

    def test_clear(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["a", "b"])
        cbf.clear()
        assert cbf.element_count == 0
        assert "a" not in cbf

    def test_no_false_negatives_bulk(self):
        cbf = CountingBloomFilter(1200, 4)
        elements = [f"kw{i}" for i in range(150)]
        cbf.add_all(elements)
        assert cbf.contains_all(elements)

    def test_max_counter_small_in_paper_regime(self):
        """With the §5.1 sizing, 4-bit counters suffice (Fan et al.)."""
        cbf = CountingBloomFilter(1200, 4)
        cbf.add_all(f"kw{i}" for i in range(150))
        assert cbf.max_counter() <= 15

    def test_a_counter_has_no_ceiling(self):
        """Regression: counters were unsigned shorts, so the 65 536th
        add of one element raised OverflowError from inside the
        position loop — earlier positions already incremented, the
        element multiset not — and a later remove corrupted the
        filter."""
        cbf = CountingBloomFilter(512, 4)
        for _ in range(65536):
            cbf.add("popular")
        assert cbf.max_counter() == 65536
        assert cbf.element_count == 65536
        for _ in range(65536):
            cbf.remove("popular")
        assert cbf.bit_int() == 0
        assert cbf.max_counter() == 0
        assert not cbf._counters
        assert cbf.distinct_element_count == 0


class TestBloomExport:
    def test_export_matches_membership(self):
        cbf = CountingBloomFilter(1200, 4)
        cbf.add_all(["a", "b", "c"])
        bf = cbf.to_bloom_filter()
        assert isinstance(bf, BloomFilter)
        for element in ("a", "b", "c"):
            assert element in bf

    def test_export_reflects_removals(self):
        cbf = CountingBloomFilter(1200, 4)
        cbf.add_all(["a", "b"])
        cbf.remove("a")
        bf = cbf.to_bloom_filter()
        assert "b" in bf

    def test_export_set_positions_agree(self):
        cbf = CountingBloomFilter(256, 3)
        cbf.add_all(["x", "y"])
        assert cbf.to_bloom_filter().set_positions() == cbf.set_positions()

    def test_counting_and_plain_agree_on_positions(self):
        """Both filter types must hash identically (delta protocol
        relies on it)."""
        plain = BloomFilter(1200, 4)
        counting = CountingBloomFilter(1200, 4)
        for element in ("one", "two", "three"):
            plain.add(element)
            counting.add(element)
        assert counting.to_bloom_filter() == plain

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0, 4)
        with pytest.raises(ValueError):
            CountingBloomFilter(100, 0)
