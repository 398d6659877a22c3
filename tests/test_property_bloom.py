"""Property-based tests (hypothesis) for the Bloom filter substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bloom import CountingBloomFilter, DeltaCodec, element_mask, elements_mask
from repro.bloom.bloom_filter import BloomFilter

elements = st.lists(st.text(min_size=1, max_size=12), min_size=0, max_size=60)
params = st.tuples(st.integers(64, 2048), st.integers(1, 8))


def covers(vector, mask):
    return vector & mask == mask


@given(elements=elements, params=params)
def test_bloom_never_false_negative(elements, params):
    bits, hashes = params
    vector = elements_mask(elements, bits, hashes)
    assert all(covers(vector, element_mask(e, bits, hashes)) for e in elements)


@given(
    stored=elements,
    # Probes share a small alphabet with nothing stored, so a tuple mixes
    # present, absent and repeated keywords; ``()`` is drawn too.
    probe=st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=5),
    shared=st.integers(0, 5),
    params=params,
)
def test_contains_all_mask_equals_per_element_rule(stored, probe, shared, params):
    """One AND against the tuple's OR-mask == each element's mask covered
    in turn, for tuples and for any other iterable."""
    bits, hashes = params
    probe = probe + stored[:shared]
    vector = elements_mask(stored, bits, hashes)
    bf = BloomFilter(bits, hashes, vector)
    expected = all(covers(vector, element_mask(k, bits, hashes)) for k in probe)
    assert covers(vector, elements_mask(probe, bits, hashes)) is expected
    assert bf.contains_all(tuple(probe)) is expected
    assert bf.contains_all(iter(probe)) is expected


@given(
    keep=st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30, unique=True),
    drop=st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=30, unique=True),
)
def test_counting_filter_discard_preserves_others(keep, drop):
    """After discarding `drop`, the vector is the plain filter of what is kept."""
    keep_set = set(keep) - set(drop)
    cbf = CountingBloomFilter(512, 4)
    cbf.add_all(keep_set)
    cbf.add_all(drop)
    for element in drop:
        assert cbf.discard(element)
    assert cbf.bit_int() == elements_mask(keep_set, 512, 4)


@given(elements=st.lists(st.text(min_size=1, max_size=8), max_size=40))
def test_counting_add_discard_all_returns_to_empty(elements):
    cbf = CountingBloomFilter(512, 4)
    cbf.add_all(elements)
    assert cbf.bit_int() == elements_mask(elements, 512, 4)
    for element in elements:
        assert cbf.discard(element)
    assert cbf.bit_int() == 0


@given(a=elements, b=elements)
def test_codec_decode_matches_target(a, b):
    x = elements_mask(a, 512, 4)
    y = elements_mask(b, 512, 4)
    delta = DeltaCodec(512).encode(x, y)
    assert delta.apply(x) == y
    if not delta.is_full:
        assert delta.xor_mask == x ^ y


@given(a=elements, b=elements)
def test_codec_never_exceeds_full_vector_cost(a, b):
    x = elements_mask(a, 512, 4)
    y = elements_mask(b, 512, 4)
    assert DeltaCodec(512).encode(x, y).encoded_bits <= 512
