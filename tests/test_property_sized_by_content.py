"""Content-sized structures answer exactly what population-sized ones did.

``FileStore`` postings (immutable tuples replaced on change, the whole
store beside a count: no file-id set) and ``CountingBloomFilter`` state
(a count per present keyword beside the vector, no counter per
position) are driven through random operation sequences next to the
references in ``tests/reference_stores.py`` and compared after every
step, and every Locaware golden-ledger cell runs identically with the
counter-per-bit reference as every peer's filter; ``FileCatalog``'s
inverted index must not exist until somebody asks a ground-truth
question, which no simulation path does.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_stores import ArrayCountingBloomFilter, SetFileStore
from test_golden_documents import (
    BUCKET_WIDTH,
    CELLS,
    MAX_QUERIES,
    SCENARIOS,
    cell_name,
)

import repro.core.bloom_router as bloom_router_module
from repro.bloom import CountingBloomFilter, element_mask
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

#: A 24-bit filter and a 6-letter alphabet: for every hash count drawn,
#: some two letters share a position
#: (``test_filter_keywords_share_positions``), a filename's keywords
#: repeat, and many discards hit something absent or still repeated.
_BITS = 24
_elements = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_filter_ops = st.lists(
    st.one_of(
        # A filename's keywords, as ``BloomRouter.filename_cached`` adds them.
        st.tuples(st.just("add_all"), st.lists(_elements, min_size=1, max_size=3)),
        st.tuples(st.just("discard"), _elements | st.just("never-added")),
    ),
    max_size=60,
)


def test_filter_keywords_share_positions():
    letters = "abcdef"
    for hashes in range(1, 5):
        masks = [element_mask(k, _BITS, hashes) for k in letters]
        assert any(
            masks[i] & masks[j] for i in range(6) for j in range(i + 1, 6)
        ), hashes


@given(ops=_filter_ops, hashes=st.integers(1, 4))
def test_counting_filter_matches_counter_per_bit_reference(ops, hashes):
    """The run path's operations — ``add_all`` of a filename's keywords,
    ``discard`` of present, repeated and absent keywords — with the
    vector read after every step: it equals the vector the per-bit
    counters give, and a keyword is kept iff it is present."""
    live = CountingBloomFilter(_BITS, hashes)
    reference = ArrayCountingBloomFilter(_BITS, hashes)
    assert live.bit_int() == reference.bit_int() == 0
    for op, arg in ops:
        if op == "add_all":
            live.add_all(iter(arg))
            reference.add_all(arg)
        else:
            assert live.discard(arg) == reference.discard(arg)
        assert live.bit_int() == reference.bit_int()
        # Sized by content: the counts are the multiset of present keywords.
        assert live._counts == reference._elements


#: The golden-ledger matrix cells whose peers keep Bloom filters.
_BLOOM_CELLS = [
    cell[:4]
    for cell in CELLS
    if cell[1].startswith("locaware") and cell[2] in SCENARIOS and not cell[4]
]

#: The counters a peer filter's vector decides.
_BLOOM_COUNTERS = (
    "counter.bloom.pushes",
    "counter.bloom.push_bits",
    "counter.messages.bloom_update",
    "counter.bloom.membership_tests",
)


@pytest.mark.parametrize("capacity", [None, 1], ids=["index-default", "index-1"])
@pytest.mark.parametrize("cell", _BLOOM_CELLS, ids=lambda cell: cell_name(*cell))
def test_a_golden_cell_runs_as_on_the_counter_per_bit_reference(cell, capacity):
    """Every peer filter of a golden-ledger cell swapped for the
    reference: the same pushes, delta sizes, updates, membership tests
    and end-of-run filter statistics.  The golden cells evict nothing,
    so each also runs with a one-filename response index, whose
    evictions discard keywords."""
    model, protocol, scenario, seed = cell
    config = small_config(seed=seed).replace(
        query_rate_per_peer=0.02, latency_model=model
    )
    if capacity is not None:
        config = config.replace(index_capacity=capacity)

    def run():
        return run_protocol(
            config, protocol, max_queries=MAX_QUERIES, bucket_width=BUCKET_WIDTH,
            scenario=scenario,
        )

    made = []

    class Watched(ArrayCountingBloomFilter):
        def __init__(self, bits, hashes):
            super().__init__(bits, hashes)
            made.append(self)

    live = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloom_router_module, "CountingBloomFilter", Watched)
        reference = run()
    assert made  # the reference is the filter that ran
    assert reference.metric_snapshot == live.metric_snapshot
    assert reference.telemetry.protocol["bloom"] == live.telemetry.protocol["bloom"]
    snapshot = live.metric_snapshot
    assert all(snapshot[name] > 0 for name in _BLOOM_COUNTERS)
    assert capacity is not None or "counter.index.evictions" not in snapshot


def test_a_one_filename_index_evicts_in_most_golden_cells():
    """Not vacuous: the one-filename runs above discard keywords."""
    evicting = 0
    for model, protocol, scenario, seed in _BLOOM_CELLS:
        config = small_config(seed=seed).replace(
            query_rate_per_peer=0.02, latency_model=model, index_capacity=1
        )
        run = run_protocol(
            config, protocol, max_queries=MAX_QUERIES, bucket_width=BUCKET_WIDTH,
            scenario=scenario, collect_telemetry=False,
        )
        evicting += run.metric_snapshot.get("counter.index.evictions", 0) > 0
    assert evicting > len(_BLOOM_CELLS) // 2


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
