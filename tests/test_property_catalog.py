"""The keyword-tuple catalog answers what the record-backed one did.

``FileCatalog`` keeps one sorted keyword tuple per file and a tuple →
id map; ``tests/reference_catalog.py`` is the record-backed catalog it
replaced (a ``FileRecord`` per file with its filename and a
``frozenset`` of keywords, and a filename → record map).  Generated
from equal streams, the two must agree file by file — filenames,
keyword sets, records, name → id lookups — and on every ground-truth
query, and leave the stream in the same state.  ``k <= 5`` over a pool
of more than 21 keywords takes ``generate``'s inline draws; ``k = 6``
(and a pool of at most 21) takes its ``rng.sample`` branch.
"""

import random

from hypothesis import example, given
from hypothesis import strategies as st
from reference_catalog import RecordCatalog

from repro.files import FileCatalog, KeywordPool


@given(
    seed=st.integers(0, 2**32 - 1),
    pool_size=st.integers(6, 80),
    keywords_per_file=st.integers(1, 6),
    num_files=st.integers(1, 40),
    data=st.data(),
)
@example(seed=1, pool_size=21, keywords_per_file=3, num_files=40, data=None)
@example(seed=2, pool_size=22, keywords_per_file=3, num_files=40, data=None)
@example(seed=3, pool_size=60, keywords_per_file=5, num_files=40, data=None)
@example(seed=4, pool_size=60, keywords_per_file=6, num_files=40, data=None)
@example(seed=5, pool_size=6, keywords_per_file=1, num_files=6, data=None)
def test_tuple_catalog_matches_the_record_backed_reference(
    seed, pool_size, keywords_per_file, num_files, data
):
    pool = KeywordPool(pool_size)
    live_rng, reference_rng = random.Random(seed), random.Random(seed)
    try:
        live = FileCatalog.generate(num_files, keywords_per_file, pool, live_rng)
    except ValueError:
        live = None
    try:
        reference = RecordCatalog.generate(
            num_files, keywords_per_file, pool, reference_rng
        )
    except ValueError:
        reference = None
    assert (live is None) == (reference is None)
    assert live_rng.getstate() == reference_rng.getstate()
    if live is None:
        return
    assert live.num_files == reference.num_files
    for file_id in range(live.num_files):
        filename = reference.filename(file_id)
        assert live.filename(file_id) == filename
        assert set(live.keywords(file_id)) == reference.keywords(file_id)
        assert live.record(file_id) == reference.record(file_id)
        assert live.file_id(filename) == file_id
        assert live.by_filename(filename) == reference.by_filename(filename)
    assert live.all_records() == reference.all_records()
    for name in ("absent", "kw000000", "-".join(reversed(live.keywords(0)))):
        expected = reference.by_filename(name)
        assert live.by_filename(name) == expected
        assert live.file_id(name) == (None if expected is None else expected.file_id)

    vocabulary = pool.all_keywords() + ["absent"]
    queries = [[], [vocabulary[0]], ["absent"], list(live.keywords(0))[:2]]
    if data is not None:
        queries += data.draw(
            st.lists(st.lists(st.sampled_from(vocabulary), max_size=4), max_size=5)
        )
    for query in queries:
        assert live.matching_files(query) == reference.matching_files(query)
        for file_id in range(live.num_files):
            assert live.file_matches(file_id, query) == reference.file_matches(
                file_id, query
            )
    for kw in vocabulary:
        assert live.keyword_document_frequency(kw) == (
            reference.keyword_document_frequency(kw)
        )
