"""Property-based tests (hypothesis) for the Bloom filter substrate."""

from hypothesis import given
from hypothesis import strategies as st
from reference_bloom import ByteBloomFilter

from repro.bloom import (
    BloomFilter,
    CountingBloomFilter,
    DeltaCodec,
    apply_delta,
    diff,
)

elements = st.lists(st.text(min_size=1, max_size=12), min_size=0, max_size=60)
params = st.tuples(st.integers(64, 2048), st.integers(1, 8))


@given(elements=elements, params=params)
def test_bloom_never_false_negative(elements, params):
    bits, hashes = params
    bf = BloomFilter(bits, hashes)
    bf.add_all(elements)
    assert all(e in bf for e in elements)


@given(
    stored=elements,
    # Probes share a small alphabet with nothing stored, so a tuple mixes
    # present, absent and repeated keywords; ``()`` is drawn too.
    probe=st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=5),
    shared=st.integers(0, 5),
    params=params,
)
def test_contains_all_mask_equals_per_element_rule(stored, probe, shared, params):
    """One AND against the tuple's OR-mask == ``all(k in bf ...)`` == the
    bytearray twin, for tuples and for any other iterable."""
    bits, hashes = params
    probe = probe + stored[:shared]
    bf = BloomFilter(bits, hashes)
    twin = ByteBloomFilter(bits, hashes)
    bf.add_all(stored)
    twin.add_all(stored)
    expected = all(keyword in bf for keyword in probe)
    assert bf.contains_all(tuple(probe)) is expected
    assert bf.contains_all(probe) is expected
    assert bf.contains_all(iter(probe)) is expected
    assert twin.contains_all(tuple(probe)) is expected


@given(elements=elements, params=params)
def test_bloom_serialisation_roundtrip(elements, params):
    bits, hashes = params
    bf = BloomFilter(bits, hashes)
    bf.add_all(elements)
    assert BloomFilter.from_bytes(bf.to_bytes(), bits, hashes) == bf


@given(a=elements, b=elements)
def test_bloom_union_superset(a, b):
    x = BloomFilter(512, 4)
    y = BloomFilter(512, 4)
    x.add_all(a)
    y.add_all(b)
    x.union_with(y)
    assert all(e in x for e in a + b)


@given(
    keep=st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30, unique=True),
    drop=st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30, unique=True),
)
def test_counting_filter_removal_preserves_others(keep, drop):
    """After removing `drop`, every kept element still tests positive."""
    keep_set = set(keep) - set(drop)
    cbf = CountingBloomFilter(512, 4)
    cbf.add_all(keep_set)
    cbf.add_all(drop)
    for element in drop:
        cbf.remove(element)
    assert all(e in cbf for e in keep_set)


@given(elements=st.lists(st.text(min_size=1, max_size=8), max_size=40, unique=True))
def test_counting_export_equals_plain_filter(elements):
    """The exported bit-vector equals a plain filter built from scratch."""
    cbf = CountingBloomFilter(512, 4)
    plain = BloomFilter(512, 4)
    for element in elements:
        cbf.add(element)
        plain.add(element)
    assert cbf.to_bloom_filter() == plain


@given(elements=st.lists(st.text(min_size=1, max_size=8), max_size=40, unique=True))
def test_counting_add_remove_all_returns_to_empty(elements):
    cbf = CountingBloomFilter(512, 4)
    cbf.add_all(elements)
    for element in elements:
        cbf.remove(element)
    assert cbf.to_bloom_filter().set_bit_count() == 0


@given(a=elements, b=elements)
def test_delta_roundtrip(a, b):
    """diff + apply transforms any filter state into any other."""
    x = BloomFilter(512, 4)
    y = BloomFilter(512, 4)
    x.add_all(a)
    y.add_all(b)
    apply_delta(x, diff(x, y))
    assert x == y


@given(a=elements, b=elements)
def test_codec_decode_matches_target(a, b):
    codec = DeltaCodec(512, 4)
    x = BloomFilter(512, 4)
    y = BloomFilter(512, 4)
    x.add_all(a)
    y.add_all(b)
    copy = x.copy()
    codec.decode_into(copy, codec.encode(x, y))
    assert copy == y


@given(a=elements, b=elements)
def test_codec_never_exceeds_full_vector_cost(a, b):
    codec = DeltaCodec(512, 4)
    x = BloomFilter(512, 4)
    y = BloomFilter(512, 4)
    x.add_all(a)
    y.add_all(b)
    assert codec.encode(x, y).encoded_bits <= 512
