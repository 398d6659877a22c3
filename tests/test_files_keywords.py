"""Unit tests for the keyword vocabulary and filename rules."""

import random

import pytest

from repro.files import KeywordPool, canonical_form, join_keywords, tokenize_filename


class TestFilenameRules:
    def test_join_sorts_keywords(self):
        assert join_keywords(["zeta", "alpha"]) == "alpha-zeta"

    def test_tokenize_inverts_join(self):
        keywords = ["kw000001", "kw000009", "kw000005"]
        assert tokenize_filename(join_keywords(keywords)) == sorted(keywords)

    def test_canonical_form_is_order_independent(self):
        assert canonical_form(["b", "a", "c"]) == canonical_form(["c", "b", "a"])

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            join_keywords([])
        with pytest.raises(ValueError):
            join_keywords(["ok", ""])

    def test_separator_in_keyword_rejected(self):
        with pytest.raises(ValueError):
            join_keywords(["has-dash"])

    def test_tokenize_empty_rejected(self):
        with pytest.raises(ValueError):
            tokenize_filename("")


class TestKeywordPool:
    def test_size(self):
        assert KeywordPool(9000).size == 9000
        assert len(KeywordPool(10)) == 10

    def test_keywords_are_distinct(self):
        pool = KeywordPool(500)
        assert len(set(pool.all_keywords())) == 500

    def test_keyword_by_index(self):
        pool = KeywordPool(10)
        assert pool.keyword(0) == pool.all_keywords()[0]

    def test_contains_members(self):
        pool = KeywordPool(100)
        for kw in pool.all_keywords()[:10]:
            assert kw in pool

    def test_contains_rejects_outsiders(self):
        pool = KeywordPool(10)
        assert "kw999999" not in pool
        assert "banana" not in pool
        assert 42 not in pool

    def test_contains_means_is_one_of_the_tokens(self):
        pool = KeywordPool(100)
        assert "kw000001" in pool
        assert "kw1" not in pool  # right index, wrong width
        assert "kw0000001" not in pool
        assert "kw²" not in pool  # a digit to str.isdigit, not to int
        assert "kw00000١" not in pool
        assert "kw" not in pool
        members = set(pool.all_keywords())
        for candidate in ("kw000000", "kw000099", "kw000100", "kw-00001", "kw+00001"):
            assert (candidate in pool) == (candidate in members)

    def test_equal_sizes_share_one_vocabulary(self):
        assert KeywordPool(300).all_keywords() == KeywordPool(300).all_keywords()
        assert KeywordPool(300).keyword(7) is KeywordPool(300).keyword(7)

    def test_the_vocabulary_memo_is_bounded(self):
        from repro.files.keywords import _vocabulary

        bound = _vocabulary.cache_info().maxsize
        assert bound is not None and bound <= 8
        for size in range(1, bound + 5):
            KeywordPool(size)
        assert _vocabulary.cache_info().currsize == bound
        assert KeywordPool(3).all_keywords() == ["kw000000", "kw000001", "kw000002"]

    def test_sample_draws_distinct(self):
        pool = KeywordPool(100)
        rng = random.Random(1)
        for _ in range(50):
            sample = pool.sample_filename_keywords(3, rng)
            assert len(set(sample)) == 3

    def test_sample_deterministic(self):
        pool = KeywordPool(100)
        a = pool.sample_filename_keywords(3, random.Random(5))
        b = pool.sample_filename_keywords(3, random.Random(5))
        assert a == b

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            KeywordPool(2).sample_filename_keywords(3, random.Random(1))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            KeywordPool(0)
