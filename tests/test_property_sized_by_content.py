"""Content-sized structures answer exactly what population-sized ones did.

``FileStore`` postings (immutable tuples replaced on change, the whole
store beside a count: no file-id set) and
``CountingBloomFilter`` counters (a dict of the non-zero ones) are
driven through random operation sequences next to the references in
``tests/reference_stores.py`` and compared after every step;
``FileCatalog``'s inverted index must not exist until somebody asks a
ground-truth question, which no simulation path does.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_stores import ArrayCountingBloomFilter, SetFileStore

from repro.bloom import CountingBloomFilter
from repro.experiments import run_protocol, small_config
from repro.experiments.runner import DEFAULT_PROTOCOL_ORDER
from repro.files import FileCatalog, FileStore, KeywordPool
from repro.overlay import NetworkBlueprint

# -- FileStore -------------------------------------------------------------

#: 12 files over a 9-keyword pool: most keywords are on several files,
#: so postings grow past one entry and shrink back.
_CATALOG = FileCatalog.generate(12, 3, KeywordPool(9), random.Random(5))
_KEYWORDS = sorted({kw for r in _CATALOG.all_records() for kw in r.keywords})

_file_ids = st.integers(0, _CATALOG.num_files - 1)
_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _file_ids),
        st.tuples(st.just("add_many"), st.lists(_file_ids, max_size=5)),
        st.tuples(st.just("remove"), _file_ids),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)
#: Known keywords plus one nothing carries, repeats allowed, ``()`` drawn.
_queries = st.lists(
    st.lists(st.sampled_from(_KEYWORDS + ["absent"]), max_size=3).map(tuple),
    min_size=1,
    max_size=4,
)


@given(ops=_store_ops, queries=_queries)
def test_file_store_matches_set_per_keyword_reference(ops, queries):
    live, reference = FileStore(_CATALOG), SetFileStore(_CATALOG)
    for op, arg in ops:
        if op == "clear":
            assert live.clear() is reference.clear() is None
        else:
            assert getattr(live, op)(arg) == getattr(reference, op)(arg)
        # The live store keeps no file-id set: these are read off its
        # postings and its count.
        assert live.file_ids() == reference.file_ids()
        assert live.size == reference.size == len(reference.file_ids())
        for file_id in range(_CATALOG.num_files):
            assert live.contains(file_id) == reference.contains(file_id)
        for query in queries:
            assert live.matching_files(query) == reference.matching_files(query)
            assert live.first_match(query) == reference.first_match(query)
            # Any iterable of keywords is a query, not only a tuple.
            assert live.first_match(iter(query)) == reference.first_match(query)


# -- CountingBloomFilter ---------------------------------------------------

#: A 48-bit filter and a 6-letter alphabet: positions collide, counters
#: pass 1, and most discards hit something absent.
_elements = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_filter_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove", "discard"]), _elements),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=60,
)


@given(ops=_filter_ops, hashes=st.integers(1, 4))
def test_counting_filter_matches_counter_per_bit_reference(ops, hashes):
    live = CountingBloomFilter(48, hashes)
    reference = ArrayCountingBloomFilter(48, hashes)
    for op, element in ops:
        if op == "clear":
            live.clear()
            reference.clear()
        elif op == "remove" and element not in reference._elements:
            with pytest.raises(KeyError):
                live.remove(element)
        elif op == "discard":
            assert live.discard(element) == reference.discard(element)
        else:
            getattr(live, op)(element)
            getattr(reference, op)(element)
        assert live.bit_int() == reference.bit_int()
        assert live.set_positions() == reference.set_positions()
        assert live.max_counter() == reference.max_counter()
        assert live.distinct_element_count == reference.distinct_element_count
        for probe in ("a", "b", "c", "d", "e", "f", "never-added"):
            assert (probe in live) == (probe in reference)
        # Sized by content: a counter is stored iff its bit is set.
        assert sorted(live._counters) == live.set_positions()


# -- FileCatalog -----------------------------------------------------------


def _brute_force(catalog, query):
    return {
        record.file_id
        for record in catalog.all_records()
        if query and all(kw in record.keywords for kw in query)
    }


def test_catalog_index_is_not_built_by_generation():
    assert "_inverted" not in vars(_CATALOG)


@pytest.mark.parametrize("protocol", DEFAULT_PROTOCOL_ORDER)
def test_catalog_index_is_not_built_by_a_simulated_cell(protocol):
    config = small_config(seed=3).replace(query_rate_per_peer=0.02)
    blueprint = NetworkBlueprint.build(config)
    run = run_protocol(
        config, protocol, max_queries=30, bucket_width=10, blueprint=blueprint
    )
    assert run.outcomes
    assert "_inverted" not in vars(blueprint.catalog)


@given(query=st.lists(st.sampled_from(_KEYWORDS + ["absent"]), max_size=3))
def test_catalog_ground_truth_equals_a_brute_force_scan_once_asked(query):
    catalog = FileCatalog.generate(12, 3, KeywordPool(9), random.Random(5))
    assert "_inverted" not in vars(catalog)
    assert catalog.matching_files(query) == _brute_force(catalog, query)
    # The empty query is answered before the index is needed.
    assert ("_inverted" in vars(catalog)) == bool(query)
    for kw in query:
        assert catalog.keyword_document_frequency(kw) == len(
            _brute_force(catalog, [kw])
        )
