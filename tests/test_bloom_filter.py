"""Unit tests for keyword masks and the exported-vector view."""

from repro.bloom import element_mask, elements_mask
from repro.bloom.bloom_filter import BloomFilter


def covers(vector, mask):
    return vector & mask == mask


class TestMasks:
    def test_deterministic(self):
        assert element_mask("kw1", 1200, 4) == elements_mask(["kw1"], 1200, 4)

    def test_at_most_one_bit_per_hash(self):
        assert 1 <= element_mask("x", 1200, 5).bit_count() <= 5

    def test_in_range(self):
        assert element_mask("anything", 97, 8) < 1 << 97

    def test_different_elements_differ(self):
        # Not guaranteed in theory, overwhelmingly likely with 1200 bits.
        assert element_mask("a", 1200, 4) != element_mask("b", 1200, 4)

    def test_no_element_is_the_empty_mask(self):
        assert elements_mask([], 1200, 4) == 0

    def test_no_false_negatives(self):
        elements = [f"kw{i}" for i in range(150)]
        vector = elements_mask(elements, 1200, 4)
        for element in elements:
            assert covers(vector, element_mask(element, 1200, 4))

    def test_paper_sizing_false_positive_rate(self):
        """1200 bits / 150 keywords (§5.1) must stay below ~5% FPR."""
        vector = elements_mask((f"kw{i:06d}" for i in range(150)), 1200, 4)
        probes = [f"absent{i:06d}" for i in range(2000)]
        false_positives = sum(
            1 for p in probes if covers(vector, element_mask(p, 1200, 4))
        )
        assert false_positives / len(probes) < 0.05


class TestExportedView:
    def test_contains_all_is_the_mask_rule(self):
        bf = BloomFilter(1200, 4, elements_mask(["a", "b", "c"], 1200, 4))
        assert bf.bit_int() == elements_mask(["a", "b", "c"], 1200, 4)
        assert bf.contains_all(["a", "b"])
        assert bf.contains_all([])
        assert not bf.contains_all(["a", "definitely-absent-element-xyz"])
