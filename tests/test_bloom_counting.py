"""Unit tests for the counting Bloom filter."""

import pytest

from repro.bloom import CountingBloomFilter, elements_mask


def covers(cbf, keywords, bits=512, hashes=4):
    mask = elements_mask(keywords, bits, hashes)
    return cbf.bit_int() & mask == mask


class TestInsertDiscard:
    def test_add_then_covered(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["kw1"])
        assert cbf.bit_int() == elements_mask(["kw1"], 512, 4)

    def test_discard_clears_the_vector(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["kw1"])
        assert cbf.discard("kw1") is True
        assert cbf.bit_int() == 0

    def test_shared_bits_survive_discard(self):
        """Discarding one element must not evict another (the whole point
        of counting over plain bits)."""
        cbf = CountingBloomFilter(8, 4)  # tiny filter => heavy bit sharing
        cbf.add_all(["alpha", "beta"])
        cbf.discard("alpha")
        assert cbf.bit_int() == elements_mask(["beta"], 8, 4)

    def test_multiset_semantics(self):
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["kw1", "kw1"])
        cbf.discard("kw1")
        assert covers(cbf, ["kw1"])  # one occurrence left
        cbf.discard("kw1")
        assert cbf.bit_int() == 0

    def test_discard_absent_returns_false_and_changes_nothing(self):
        cbf = CountingBloomFilter(512, 4)
        assert cbf.discard("never-added") is False
        cbf.add_all(["kw1"])
        assert cbf.discard("kw1") is True
        assert cbf.discard("kw1") is False
        assert cbf.bit_int() == 0

    def test_no_false_negatives_bulk(self):
        cbf = CountingBloomFilter(1200, 4)
        elements = [f"kw{i}" for i in range(150)]
        cbf.add_all(elements)
        assert covers(cbf, elements, 1200)

    def test_a_count_has_no_ceiling(self):
        """Regression: counters were unsigned shorts, so the 65 536th
        add of one element raised OverflowError half way through an
        insert, and a later remove corrupted the filter."""
        cbf = CountingBloomFilter(512, 4)
        cbf.add_all(["popular"] * 65536)
        for _ in range(65535):
            cbf.discard("popular")
        assert covers(cbf, ["popular"])
        assert cbf.discard("popular") is True
        assert cbf.bit_int() == 0
        assert not cbf._counts

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(0, 4)
        with pytest.raises(ValueError):
            CountingBloomFilter(100, 0)


class TestBloomExport:
    def test_export_is_the_vector(self):
        cbf = CountingBloomFilter(1200, 4)
        cbf.add_all(["a", "b", "c"])
        cbf.discard("a")
        bf = cbf.to_bloom_filter()
        assert bf.bit_int() == cbf.bit_int()
        assert bf.contains_all(["b", "c"])
