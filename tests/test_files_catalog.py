"""Unit tests for the file catalog and matching rules."""

import random

import pytest

from repro.files import FileCatalog, FileRecord, KeywordPool, join_keywords
from repro.files.keywords import _vocabulary


@pytest.fixture(scope="module")
def catalog():
    return FileCatalog.generate(300, 3, KeywordPool(900), random.Random(11))


class TestGeneration:
    def test_file_count(self, catalog):
        assert catalog.num_files == 300

    def test_file_ids_dense(self, catalog):
        for fid in range(300):
            assert catalog.record(fid).file_id == fid

    def test_a_record_is_only_made_for_a_file_id(self, catalog):
        for fid in (-1, 300):
            with pytest.raises(IndexError):
                catalog.record(fid)

    def test_filenames_distinct(self, catalog):
        names = {catalog.filename(fid) for fid in range(300)}
        assert len(names) == 300

    def test_keywords_per_file(self, catalog):
        for fid in range(0, 300, 17):
            assert len(catalog.keywords(fid)) == 3

    def test_deterministic(self):
        a = FileCatalog.generate(50, 3, KeywordPool(200), random.Random(3))
        b = FileCatalog.generate(50, 3, KeywordPool(200), random.Random(3))
        assert [r.filename for r in a.all_records()] == [r.filename for r in b.all_records()]

    def test_too_small_pool_raises(self):
        # 3 keywords from a 3-keyword pool => only one possible filename.
        with pytest.raises(ValueError):
            FileCatalog.generate(2, 3, KeywordPool(3), random.Random(1))


class TestLookups:
    def test_by_filename_roundtrip(self, catalog):
        record = catalog.record(42)
        assert catalog.by_filename(record.filename) == record
        assert catalog.file_id(record.filename) == 42

    def test_by_filename_missing(self, catalog):
        assert catalog.by_filename("not-a-file") is None
        assert catalog.file_id("not-a-file") is None
        assert catalog.file_id("") is None

    def test_lookup_wants_the_canonical_filename(self, catalog):
        """A filename is its keywords in sorted order; any other order of
        the same keywords names no file."""
        keywords = catalog.keywords(42)
        assert catalog.file_id("-".join(reversed(keywords))) is None
        assert catalog.file_id("-".join(keywords[:2])) is None

    def test_keywords_are_a_sorted_tuple(self, catalog):
        for fid in range(0, 300, 7):
            keywords = catalog.keywords(fid)
            assert type(keywords) is tuple
            assert list(keywords) == sorted(keywords)
            assert catalog.filename(fid) == join_keywords(keywords)

    def test_keyword_document_frequency(self, catalog):
        record = catalog.record(0)
        kw = next(iter(record.keywords))
        assert catalog.keyword_document_frequency(kw) >= 1
        assert catalog.keyword_document_frequency("unused-keyword") == 0


class TestMatching:
    def test_full_filename_matches_itself(self, catalog):
        record = catalog.record(7)
        assert 7 in catalog.matching_files(record.keywords)

    def test_partial_query_matches(self, catalog):
        """§3.1: any subset of a filename's keywords satisfies it."""
        record = catalog.record(10)
        one_keyword = [next(iter(record.keywords))]
        assert 10 in catalog.matching_files(one_keyword)

    def test_match_requires_all_keywords(self, catalog):
        a = catalog.record(1)
        b = catalog.record(2)
        mixed = [next(iter(a.keywords)), next(iter(b.keywords - a.keywords))]
        matches = catalog.matching_files(mixed)
        # No guarantee some file holds both, but file 1 must not match
        # unless it really contains both keywords.
        if 1 in matches:
            assert all(kw in a.keywords for kw in mixed)

    def test_unknown_keyword_matches_nothing(self, catalog):
        assert catalog.matching_files(["nonexistent"]) == set()

    def test_empty_query_matches_nothing(self, catalog):
        assert catalog.matching_files([]) == set()

    def test_file_matches_agrees_with_matching_files(self, catalog):
        record = catalog.record(33)
        query = list(record.keywords)[:2]
        assert catalog.file_matches(33, query)
        assert 33 in catalog.matching_files(query)

    def test_ground_truth_is_exhaustive(self, catalog):
        """matching_files must equal the brute-force scan."""
        query = list(catalog.record(99).keywords)[:1]
        brute = {
            r.file_id for r in catalog.all_records() if r.keywords >= set(query)
        }
        assert catalog.matching_files(query) == brute


class TestConstructorValidation:
    """``FileCatalog(records, pool)`` keeps only what it can vouch for."""

    def _record(self, file_id, *indices):
        keywords = [f"kw{idx:06d}" for idx in indices]
        return FileRecord(file_id, join_keywords(keywords), frozenset(keywords))

    def test_accepts_dense_canonical_records(self):
        records = [self._record(0, 1, 2), self._record(1, 1, 3)]
        catalog = FileCatalog(records, KeywordPool(10))
        assert catalog.all_records() == records
        assert catalog.keywords(1) == ("kw000001", "kw000003")
        assert catalog.file_id("kw000001-kw000003") == 1

    def test_record_id_must_be_its_position(self):
        with pytest.raises(ValueError):
            FileCatalog([self._record(5, 1, 2)], KeywordPool(10))
        with pytest.raises(ValueError):
            FileCatalog([self._record(0, 1, 2), self._record(2, 1, 3)], KeywordPool(10))

    def test_filename_must_be_the_join_of_its_keywords(self):
        for filename in ("kw000002-kw000001", "kw000001-kw000002", "kw000001-kw000003-"):
            record = FileRecord(0, filename, frozenset(["kw000001", "kw000003"]))
            with pytest.raises(ValueError):
                FileCatalog([record], KeywordPool(10))


class TestVocabularyOrder:
    """``generate`` sorts drawn indices and maps them to strings; that is
    the string sort only because a pool's tokens share one width."""

    @pytest.mark.parametrize("size", [1, 9, 10, 11, 999, 1000, 1001, 9000, 54000])
    def test_index_order_is_string_order(self, size):
        vocabulary = _vocabulary(size)
        assert list(vocabulary) == sorted(vocabulary)
        assert len({len(token) for token in vocabulary}) == 1
