"""A counting Bloom filter supporting deletions.

Locaware's response index evicts filenames (recency replacement,
capacity limits — §4.1.2), and "a Bloom filter BF_n is built
incrementally as new filenames are inserted in RI_n *and existing ones
discarded*" (§4.2).  A plain bit vector cannot delete safely: two
cached filenames may share a keyword, or two different keywords may
collide on a bit position.  The classic fix (Fan et al. 1998, the
paper's reference [8]) replaces each bit with a small counter, and a
bit of the exported vector is set iff its counter is non-zero.

A bit's counter is non-zero exactly when some present keyword probes
it, so this filter counts keywords instead of positions: a keyword →
count dict, beside the exported vector as one int.  Peers keep it
locally, and the vector is what travels to neighbors.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bloom_filter import BloomFilter, element_mask

__all__ = ["CountingBloomFilter"]


class CountingBloomFilter:
    """Bloom filter over a multiset of keywords (supports deletion).

    An insert ORs the keyword's memoised mask into the vector.  A
    discard that removes a keyword's last occurrence recomputes the
    vector from the keywords left, so a bit shared with one of them
    stays set; any other discard leaves the vector as it is.
    """

    __slots__ = ("_bits", "_hashes", "_counts", "_vector")

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self._bits = bits
        self._hashes = hashes
        self._counts: dict[str, int] = {}
        self._vector = 0

    def add_all(self, elements: Iterable[str]) -> None:
        """Insert every element of ``elements`` (repeats stack)."""
        counts, bits, hashes = self._counts, self._bits, self._hashes
        for element in elements:
            self._vector |= element_mask(element, bits, hashes)
            counts[element] = counts.get(element, 0) + 1

    def discard(self, element: str) -> bool:
        """Remove one occurrence of ``element``; ``False`` if it is absent
        (an absent keyword must not clear another's bits)."""
        counts = self._counts
        count = counts.get(element, 0)
        if count > 1:
            counts[element] = count - 1
        elif count:
            del counts[element]
            bits, hashes = self._bits, self._hashes
            vector = 0
            for left in counts:
                vector |= element_mask(left, bits, hashes)
            self._vector = vector
        return count > 0

    def bit_int(self) -> int:
        """The exported bit vector as one int (bit ``p`` = position ``p``):
        "has anything changed since the last push?" is one int compare."""
        return self._vector

    def to_bloom_filter(self) -> BloomFilter:
        """The exported vector as a :class:`BloomFilter` (kept only for
        the benchmark's layer tracer, which wraps it by name)."""
        return BloomFilter(self._bits, self._hashes, self._vector)
