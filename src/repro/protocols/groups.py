"""Group-id hashing shared by Dicas, Dicas-Keys, and Locaware.

§3.2: each peer randomly picks a group id ``Gid ∈ [0, M)``; a peer
matches a filename when ``Gid == hash(f) mod M``.  The hash must be
stable across processes (simulation runs must be reproducible), so we
use BLAKE2b rather than Python's salted ``hash()``.

Dicas hashes the *whole filename*; Dicas-Keys hashes *individual
keywords*.  For a keyword query, Dicas's best guess at the filename is
the canonical (sorted, joined) form of the query's keywords — correct
exactly when the query contains all of the filename's keywords, which
is how the reproduction models §5.2's "Gid-based routing misleads
keyword queries".
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import lru_cache

from ..files.keywords import canonical_form

__all__ = ["stable_hash", "file_group", "query_group_guess", "keyword_groups"]


@lru_cache(maxsize=None)
def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of ``text``.

    Memoised for one cell: caching hashes the same filenames on every
    passing response and routing the same keyword sets on every query,
    so each distinct string pays for its BLAKE2b digest once per cell.
    The run that ends the cell empties the memo (:func:`hash_cache_clear`).
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def file_group(filename: str, group_count: int) -> int:
    """The §3.2 rule: ``Gid(f) = hash(f) mod M``."""
    if group_count < 1:
        raise ValueError(f"group_count must be >= 1, got {group_count}")
    return stable_hash(filename) % group_count


def query_group_guess(query_keywords: Iterable[str], group_count: int) -> int:
    """Dicas's group guess for a keyword query.

    Treats the canonicalised keyword set as if it were the full
    filename.  Matches :func:`file_group` iff the query carries every
    keyword of the filename.  Memoised per keyword tuple for one cell,
    like :func:`stable_hash`: a query asks on every hop, and the answer
    is fixed when it is issued.
    """
    if type(query_keywords) is not tuple:
        query_keywords = tuple(query_keywords)
    return _group_guess(query_keywords, group_count)


@lru_cache(maxsize=None)
def _group_guess(query_keywords: tuple[str, ...], group_count: int) -> int:
    return file_group(canonical_form(query_keywords), group_count)


def keyword_groups(keywords: Iterable[str], group_count: int) -> set[int]:
    """Dicas-Keys: the set of groups matching any individual keyword."""
    if group_count < 1:
        raise ValueError(f"group_count must be >= 1, got {group_count}")
    return {stable_hash(kw) % group_count for kw in keywords}


def hash_cache_clear() -> None:
    """Drop the memoised hashes and group guesses (at the end of a cell)."""
    stable_hash.cache_clear()
    _group_guess.cache_clear()
