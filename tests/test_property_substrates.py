"""Property-based tests for engine, landmarks, and files."""

import math
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.files import (
    FileCatalog,
    FileStore,
    KeywordPool,
    join_keywords,
    tokenize_filename,
)
from repro.net import (
    locid_to_permutation,
    permutation_to_locid,
    rtt_ordering,
)
from repro.sim import Simulator


# -- engine ------------------------------------------------------------------


@given(delays=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_engine_clock_never_goes_backwards(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    last = -1.0
    while sim.step():
        assert sim.now >= last
        last = sim.now


# -- landmarks ------------------------------------------------------------


@st.composite
def permutations(draw):
    k = draw(st.integers(1, 7))
    return draw(st.permutations(list(range(k))))


@given(perm=permutations())
def test_locid_bijection(perm):
    k = len(perm)
    locid = permutation_to_locid(perm)
    assert 0 <= locid < math.factorial(k)
    assert locid_to_permutation(locid, k) == list(perm)


@given(rtts=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=8))
def test_rtt_ordering_is_permutation_sorted_by_rtt(rtts):
    order = rtt_ordering(rtts)
    assert sorted(order) == list(range(len(rtts)))
    values = [rtts[i] for i in order]
    assert values == sorted(values)


# -- filenames --------------------------------------------------------------

keyword = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=10
)


@given(keywords=st.lists(keyword, min_size=1, max_size=5, unique=True))
def test_filename_tokenisation_roundtrip(keywords):
    assert tokenize_filename(join_keywords(keywords)) == sorted(keywords)


@given(keywords=st.lists(keyword, min_size=1, max_size=5, unique=True))
def test_filename_canonical_under_permutation(keywords):
    reversed_kw = list(reversed(keywords))
    assert join_keywords(keywords) == join_keywords(reversed_kw)


# -- file store --------------------------------------------------------------

# 12 keywords over 40 three-keyword files: most keywords sit in several
# files, so postings overlap and a store often holds part of a query.
_CATALOG = FileCatalog.generate(40, 3, KeywordPool(12), random.Random(3))
_VOCABULARY = _CATALOG.keyword_pool.all_keywords() + ["absent"]


@given(
    shared=st.sets(st.integers(0, 39), max_size=12),
    dropped=st.sets(st.integers(0, 39), max_size=4),
    query=st.lists(st.sampled_from(_VOCABULARY), max_size=4),
)
def test_first_match_is_the_smallest_matching_file(shared, dropped, query):
    """``first_match`` == ``min(matching_files)`` or ``None`` — for the
    empty query, repeated and absent keywords, after removals, and for a
    one-shot iterable as well as a tuple."""
    store = FileStore(_CATALOG)
    store.add_many(sorted(shared))
    for file_id in sorted(dropped):
        store.remove(file_id)
    matches = store.matching_files(query)
    expected = min(matches) if matches else None
    assert store.first_match(tuple(query)) == expected
    assert store.first_match(iter(query)) == expected
    assert matches == {
        fid for fid in shared - dropped if query and set(_CATALOG.keywords(fid)) >= set(query)
    }
