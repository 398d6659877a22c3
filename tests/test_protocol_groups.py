"""Unit tests for group-id hashing."""

import pytest

from repro.protocols import file_group, keyword_groups, query_group_guess, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("alpha-beta") == stable_hash("alpha-beta")

    def test_spreads_values(self):
        hashes = {stable_hash(f"kw{i}") for i in range(100)}
        assert len(hashes) == 100

    def test_64_bit_range(self):
        assert 0 <= stable_hash("x") < 2**64


class TestFileGroup:
    def test_in_range(self):
        for i in range(50):
            assert 0 <= file_group(f"f{i}", 4) < 4

    def test_roughly_uniform(self):
        counts = [0] * 4
        for i in range(2000):
            counts[file_group(f"file-{i}", 4)] += 1
        for count in counts:
            assert 400 < count < 600

    def test_invalid_group_count(self):
        with pytest.raises(ValueError):
            file_group("f", 0)


class TestQueryGroupGuess:
    def test_full_filename_query_matches_file_group(self):
        """A query holding all keywords canonicalises to the filename,
        so Dicas's guess is correct (the X == K case of §5.2)."""
        keywords = ["kw000002", "kw000007", "kw000005"]
        filename = "kw000002-kw000005-kw000007"
        assert query_group_guess(keywords, 8) == file_group(filename, 8)

    def test_memoised_guess_equals_the_direct_hash(self):
        """Tuple, list and one-shot iterable all give ``hash(canonical)``,
        repeated asks included; invalid input still raises every time."""
        for keywords in (("kw2", "kw1"), ("kw1",), ("kw3", "kw1", "kw2")):
            expected = file_group("-".join(sorted(keywords)), 8)
            for _ in range(2):
                assert query_group_guess(keywords, 8) == expected
                assert query_group_guess(list(keywords), 8) == expected
                assert query_group_guess(iter(keywords), 8) == expected
        for _ in range(2):
            with pytest.raises(ValueError):
                query_group_guess((), 8)
            with pytest.raises(ValueError):
                query_group_guess(("kw1",), 0)

    def test_memos_are_bounded_above_one_large_catalog(self):
        """A 60 000-peer catalog has 180 000 filenames: one cell must fit,
        a worker's whole life must not."""
        from repro.protocols.groups import _group_guess

        for memo in (stable_hash, _group_guess):
            assert 180_000 < memo.cache_info().maxsize < 10**6

    def test_guess_is_order_independent(self):
        assert query_group_guess(["b", "a"], 8) == query_group_guess(["a", "b"], 8)

    def test_partial_query_usually_misses(self):
        """Partial-keyword queries hash to the wrong group almost always
        (the misleading-routing effect)."""
        misses = 0
        trials = 200
        for i in range(trials):
            filename = f"kwa{i:04d}-kwb{i:04d}-kwc{i:04d}"
            partial = [f"kwa{i:04d}"]
            if query_group_guess(partial, 8) != file_group(filename, 8):
                misses += 1
        assert misses > trials * 0.7


class TestKeywordGroups:
    def test_single_keyword(self):
        groups = keyword_groups(["kw1"], 4)
        assert len(groups) == 1
        assert groups == {stable_hash("kw1") % 4}

    def test_multiple_keywords_union(self):
        groups = keyword_groups(["kw1", "kw2", "kw3"], 4)
        assert groups == {
            stable_hash("kw1") % 4,
            stable_hash("kw2") % 4,
            stable_hash("kw3") % 4,
        }

    def test_at_most_one_group_each(self):
        assert len(keyword_groups(["a", "b", "c"], 2)) <= 2

    def test_invalid_group_count(self):
        with pytest.raises(ValueError):
            keyword_groups(["a"], 0)
