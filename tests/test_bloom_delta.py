"""Unit tests for Bloom delta encoding (§4.2 footnote protocol)."""

import pytest

from repro.bloom import BloomFilter, DeltaCodec, apply_delta, diff


def _filters(*element_sets):
    out = []
    for elements in element_sets:
        bf = BloomFilter(1200, 4)
        bf.add_all(elements)
        out.append(bf)
    return out


class TestDiff:
    def test_identical_filters_have_empty_diff(self):
        a, b = _filters(["x", "y"], ["x", "y"])
        assert diff(a, b) == []

    def test_diff_lists_changed_positions(self):
        a, b = _filters([], ["x"])
        changed = set(diff(a, b))
        assert changed == set(b.set_positions())

    def test_diff_symmetric_in_size(self):
        a, b = _filters(["x"], ["y"])
        assert len(diff(a, b)) == len(diff(b, a))

    def test_diff_incompatible_rejected(self):
        with pytest.raises(ValueError):
            diff(BloomFilter(64, 2), BloomFilter(128, 2))


class TestApplyDelta:
    def test_apply_diff_converges(self):
        a, b = _filters(["x", "y"], ["y", "z"])
        apply_delta(a, diff(a, b))
        assert a == b

    def test_apply_twice_is_identity(self):
        a, b = _filters(["x"], ["y"])
        delta = diff(a, b)
        original = a.copy()
        apply_delta(a, delta)
        apply_delta(a, delta)
        assert a == original


class TestDeltaCodec:
    def test_position_width_matches_paper(self):
        """1200-bit vector => 11 bits per position (§4.2 footnote)."""
        assert DeltaCodec(1200, 4).position_bits == 11

    def test_single_filename_update_fits_paper_bound(self):
        """Adding one 3-keyword filename changes <= 12 bits => <= 132 bits."""
        codec = DeltaCodec(1200, 4)
        old = BloomFilter(1200, 4)
        new = old.copy()
        new.add_all(["kw-one", "kw-two", "kw-three"])
        delta = codec.encode(old, new)
        assert not delta.is_full
        assert len(delta.changed_positions) <= 12
        assert delta.encoded_bits <= 132

    def test_decode_applies_delta(self):
        codec = DeltaCodec(1200, 4)
        old, new = _filters(["a"], ["a", "b"])
        delta = codec.encode(old, new)
        assert delta.xor_mask == old.bit_int() ^ new.bit_int()
        assert delta.apply(old.bit_int()) == new.bit_int()
        # A delta flips the changed bits of whatever copy it reaches.
        assert delta.apply(0) == delta.xor_mask

    def test_full_fallback_when_delta_large(self):
        codec = DeltaCodec(1200, 4)
        old = BloomFilter(1200, 4)
        new = BloomFilter(1200, 4)
        # Set enough random-ish bits that the delta exceeds 1200 bits:
        # > 1200/11 ≈ 110 changed positions.
        for pos in range(0, 1200, 8):  # 150 positions
            new.set_bit(pos, True)
        delta = codec.encode(old, new)
        assert delta.is_full
        assert delta.encoded_bits == 1200

    def test_decode_full_fallback(self):
        codec = DeltaCodec(1200, 4)
        old = BloomFilter(1200, 4)
        new = BloomFilter(1200, 4)
        for pos in range(0, 1200, 8):
            new.set_bit(pos, True)
        delta = codec.encode(old, new)
        assert delta.changed_positions is None
        # The full vector replaces whatever copy it reaches.
        assert delta.apply(old.bit_int()) == delta.apply(12345) == new.bit_int()

    def test_empty_update_costs_zero_bits(self):
        codec = DeltaCodec(1200, 4)
        a, b = _filters(["same"], ["same"])
        delta = codec.encode(a, b)
        assert delta.encoded_bits == 0
        assert delta.changed_positions == ()

    def test_eviction_update_roundtrip(self):
        """Removal-induced deltas (§4.2: 'existing ones discarded')."""
        codec = DeltaCodec(1200, 4)
        old, new = _filters(["a", "b", "c"], ["a"])
        delta = codec.encode(old, new)
        assert delta.changed_positions == tuple(diff(old, new))
        assert delta.apply(old.bit_int()) == new.bit_int()

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            DeltaCodec(0, 4)
