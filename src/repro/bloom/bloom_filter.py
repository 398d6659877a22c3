"""Keyword masks: how an element sets and tests bits of a filter vector.

This is the hashing of the structure exchanged between Locaware
neighbors (§4.2): peer ``n`` summarises the keywords of every filename
cached in its response index as ``BF_n`` and ships it to neighbors, who
route queries by membership tests against the stored copies.  A vector
is one Python int, bit ``p`` being filter position ``p``, so an insert
is one OR of the element's mask and a k-probe membership test is one
AND against it.

Hashing uses the Kirsch–Mitzenmacher double-hashing scheme: two 64-bit
values are drawn from a single BLAKE2b digest of the element, and the
``i``-th probe position is ``(h1 + i·h2) mod m``.  BLAKE2b keeps
membership deterministic across processes and Python versions (the
built-in ``hash()`` is salted per process, which would break
reproducibility of routing decisions).

An element's mask depends only on ``(element, bits, hashes)``, so the
masks a peer's filter inserts are memoised (:func:`element_mask`) — one
BLAKE2b per *distinct* keyword per filter geometry — and the run that
ends a cell empties the memo (:func:`mask_cache_clear`).  A query's
mask (:func:`elements_mask`) is computed once, when the query is
issued, and travels with the query, so it goes through no memo that
would keep every query's keywords until the cell ends.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import lru_cache

__all__ = ["element_mask", "elements_mask", "mask_cache_clear", "BloomFilter"]


def _mask(element: str, bits: int, hashes: int) -> int:
    digest = hashlib.blake2b(element.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full-period stride
    mask = 0
    for i in range(hashes):
        mask |= 1 << ((h1 + i * h2) % bits)
    return mask


@lru_cache(maxsize=None)
def element_mask(element: str, bits: int, hashes: int) -> int:
    """The element's probe positions in an ``(m=bits, k=hashes)`` filter
    as an OR-ready bit mask; memoised for one cell."""
    return _mask(element, bits, hashes)


def elements_mask(elements: Iterable[str], bits: int, hashes: int) -> int:
    """The OR of the elements' probe masks (0 for none): a filter
    contains every element iff it covers it, so the §4.2 query match
    rule is one AND against it.

    Hashed afresh, through no memo: a query computes its mask once, when
    it is issued, and carries it to every hop.
    """
    mask = 0
    for element in elements:
        mask |= _mask(element, bits, hashes)
    return mask


def mask_cache_clear() -> None:
    """Drop the memoised element masks (at the end of a cell)."""
    element_mask.cache_clear()


class BloomFilter:
    """A plain vector with its geometry, as
    :meth:`~repro.bloom.counting.CountingBloomFilter.to_bloom_filter`
    exports it.

    The simulation keeps every vector as a bare int; this class remains
    only because the benchmark's layer tracer wraps :meth:`contains_all`
    by name (ROADMAP item 11 retires that).
    """

    __slots__ = ("_bits", "_hashes", "_value")

    def __init__(self, bits: int, hashes: int, value: int) -> None:
        self._bits = bits
        self._hashes = hashes
        self._value = value

    def contains_all(self, elements: Iterable[str]) -> bool:
        """Whether every element tests positive (the §4.2 query match rule)."""
        mask = elements_mask(elements, self._bits, self._hashes)
        return self._value & mask == mask

    def bit_int(self) -> int:
        """The bit vector as one int (bit ``p`` = filter position ``p``)."""
        return self._value
