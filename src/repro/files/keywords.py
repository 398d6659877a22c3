"""Keyword vocabulary and filename synthesis.

The paper's workload (§5.1) builds filenames from keywords: each
filename is formed of 3 keywords randomly chosen from a pool of 9000,
and queries pick 1–3 keywords of the queried filename.  This module
owns the vocabulary and the "filenames are broken into keywords
following predefined rules" step (§3.1): our predefined rule is that a
filename is the hyphen-joined, sorted sequence of its keywords, so
tokenisation is trivially invertible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import lru_cache

__all__ = ["KeywordPool", "tokenize_filename", "join_keywords", "canonical_form"]

#: Separator used when rendering a keyword set as a filename string.
FILENAME_SEPARATOR = "-"


def join_keywords(keywords: Sequence[str]) -> str:
    """Render keywords as a canonical filename string (sorted, hyphenated).

    >>> join_keywords(["beta", "alpha"])
    'alpha-beta'
    """
    if not keywords:
        raise ValueError("a filename needs at least one keyword")
    for kw in keywords:
        if FILENAME_SEPARATOR in kw:
            raise ValueError(f"keyword {kw!r} contains the filename separator")
        if not kw:
            raise ValueError("keywords must be non-empty")
    return FILENAME_SEPARATOR.join(sorted(keywords))


def tokenize_filename(filename: str) -> list[str]:
    """Split a filename back into its keywords (the §3.1 predefined rule).

    >>> tokenize_filename('alpha-beta')
    ['alpha', 'beta']
    """
    if not filename:
        raise ValueError("cannot tokenize an empty filename")
    return filename.split(FILENAME_SEPARATOR)


def canonical_form(keywords: Sequence[str]) -> str:
    """Canonical string for a keyword *set* (used by Dicas filename hashing).

    Sorting makes the form independent of keyword order, so a query that
    contains all of a filename's keywords — in any order — canonicalises
    to exactly the filename string.
    """
    return join_keywords(list(keywords))


#: Vocabularies kept by the memo below.  A grid visits a handful of
#: population sizes and every world of one size shares one vocabulary;
#: bounded because a grid worker lives through many grids and the
#: vocabulary of a 60 000-peer world is 540 000 strings.
_VOCABULARY_MEMO_SIZE = 4


@lru_cache(maxsize=_VOCABULARY_MEMO_SIZE)
def _vocabulary(size: int) -> tuple[str, ...]:
    """The tokens of a ``size``-keyword pool — a pure function of the size."""
    width = max(6, len(str(size - 1)))
    return tuple(f"kw{idx:0{width}d}" for idx in range(size))


class KeywordPool:
    """The fixed keyword vocabulary of one simulated system.

    Keywords are synthetic tokens ``kw000000`` … ``kwNNNNNN``; identity
    (not linguistics) is all the protocols care about.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"keyword pool size must be >= 1, got {size}")
        self._size = size
        self._keywords = _vocabulary(size)

    @property
    def size(self) -> int:
        """Number of keywords in the vocabulary."""
        return self._size

    def keyword(self, index: int) -> str:
        """The ``index``-th keyword."""
        return self._keywords[index]

    def all_keywords(self) -> list[str]:
        """A copy of the whole vocabulary."""
        return list(self._keywords)

    def sample_filename_keywords(
        self, count: int, rng: random.Random
    ) -> tuple[str, ...]:
        """Draw ``count`` distinct keywords for a new filename."""
        if count > self._size:
            raise ValueError(
                f"cannot draw {count} distinct keywords from a pool of {self._size}"
            )
        return tuple(rng.sample(self._keywords, count))

    def __contains__(self, keyword: object) -> bool:
        if not isinstance(keyword, str) or not keyword.startswith("kw"):
            return False
        # All keywords share the 'kw' prefix + zero-padded index layout:
        # the suffix names the only token it can be.
        suffix = keyword[2:]
        if not (suffix.isascii() and suffix.isdigit()):
            return False
        index = int(suffix)
        return index < self._size and self._keywords[index] == keyword

    def __len__(self) -> int:
        return self._size
