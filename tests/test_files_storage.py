"""Unit tests for the per-peer file store."""

import random

import pytest

from repro.files import FileCatalog, FileStore, KeywordPool


@pytest.fixture(scope="module")
def catalog():
    return FileCatalog.generate(100, 3, KeywordPool(300), random.Random(23))


@pytest.fixture()
def store(catalog):
    return FileStore(catalog)


class TestBasicOperations:
    def test_starts_empty(self, store):
        assert store.size == 0
        assert store.file_ids() == set()

    def test_add_and_contains(self, store):
        assert store.add(5) is True
        assert store.contains(5)
        assert store.size == 1

    def test_double_add_is_noop(self, store):
        store.add(5)
        assert store.add(5) is False
        assert store.size == 1

    def test_add_many_counts_new(self, store):
        store.add(1)
        assert store.add_many([1, 2, 3]) == 2

    def test_remove(self, store):
        store.add(5)
        assert store.remove(5) is True
        assert not store.contains(5)

    def test_remove_absent_returns_false(self, store):
        assert store.remove(5) is False

    def test_clear(self, store):
        store.add_many([1, 2, 3])
        store.clear()
        assert store.size == 0
        assert store.matching_files(["anything"]) == set()

    def test_file_ids_returns_copy(self, store):
        store.add(1)
        ids = store.file_ids()
        ids.add(99)
        assert store.file_ids() == {1}


class TestMatching:
    def test_matches_by_all_keywords(self, store, catalog):
        store.add(10)
        assert store.matching_files(catalog.keywords(10)) == {10}

    def test_matches_by_subset(self, store, catalog):
        store.add(10)
        one = [next(iter(catalog.keywords(10)))]
        assert 10 in store.matching_files(one)

    def test_no_match_for_foreign_keywords(self, store, catalog):
        store.add(10)
        foreign = set(catalog.keywords(11)) - set(catalog.keywords(10))
        assert 10 not in store.matching_files(list(foreign)[:1])

    def test_match_reflects_removal(self, store, catalog):
        store.add(10)
        store.remove(10)
        assert store.matching_files(catalog.keywords(10)) == set()

    def test_inverted_index_consistent_after_churn(self, store, catalog):
        """Add/remove cycles must leave no phantom postings."""
        for fid in range(20):
            store.add(fid)
        for fid in range(0, 20, 2):
            store.remove(fid)
        for fid in range(20):
            expected = fid % 2 == 1
            assert (fid in store.matching_files(catalog.keywords(fid))) == expected

    def test_first_match_is_deterministic(self, store, catalog):
        kw = next(iter(catalog.keywords(10)))
        matching = sorted(catalog.matching_files([kw]))
        store.add_many(matching)
        assert store.first_match([kw]) == matching[0]

    def test_first_match_none_when_empty(self, store):
        assert store.first_match(["kw000001"]) is None

    def test_empty_query_matches_nothing(self, store):
        store.add(1)
        assert store.matching_files([]) == set()
