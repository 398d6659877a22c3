"""Unit tests for Bloom delta encoding (§4.2 footnote protocol)."""

import pytest

from repro.bloom import DeltaCodec, elements_mask


def _vectors(*element_sets):
    return [elements_mask(elements, 1200, 4) for elements in element_sets]


#: 150 set positions: a delta would cost 150 × 11 > 1200 bits.
_DENSE = sum(1 << pos for pos in range(0, 1200, 8))


class TestDeltaCodec:
    def test_position_width_matches_paper(self):
        """1200-bit vector => 11 bits per position (§4.2 footnote)."""
        assert DeltaCodec(1200).position_bits == 11

    def test_single_filename_update_fits_paper_bound(self):
        """Adding one 3-keyword filename changes <= 12 bits => <= 132 bits."""
        old, new = _vectors([], ["kw-one", "kw-two", "kw-three"])
        delta = DeltaCodec(1200).encode(old, new)
        assert not delta.is_full
        assert delta.xor_mask.bit_count() <= 12
        assert delta.encoded_bits <= 132

    def test_decode_applies_delta(self):
        old, new = _vectors(["a"], ["a", "b"])
        delta = DeltaCodec(1200).encode(old, new)
        assert delta.xor_mask == old ^ new
        assert delta.apply(old) == new
        # A delta flips the changed bits of whatever copy it reaches.
        assert delta.apply(0) == delta.xor_mask

    def test_full_fallback_when_delta_large(self):
        delta = DeltaCodec(1200).encode(0, _DENSE)
        assert delta.is_full
        assert delta.encoded_bits == 1200
        assert delta.xor_mask is None
        # The full vector replaces whatever copy it reaches.
        assert delta.apply(0) == delta.apply(12345) == _DENSE

    def test_empty_update_costs_zero_bits(self):
        a, b = _vectors(["same"], ["same"])
        delta = DeltaCodec(1200).encode(a, b)
        assert delta.encoded_bits == 0
        assert delta.xor_mask == 0

    def test_eviction_update_roundtrip(self):
        """Removal-induced deltas (§4.2: 'existing ones discarded')."""
        old, new = _vectors(["a", "b", "c"], ["a"])
        delta = DeltaCodec(1200).encode(old, new)
        assert not delta.is_full
        assert delta.apply(old) == new

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            DeltaCodec(0)
