"""A counting Bloom filter supporting deletions.

Locaware's response index evicts filenames (recency replacement,
capacity limits — §4.1.2), and "a Bloom filter BF_n is built
incrementally as new filenames are inserted in RI_n *and existing ones
discarded*" (§4.2).  A plain bit vector cannot delete safely: two
cached filenames may share a keyword, or two different keywords may
collide on a bit position.  The classic fix (Fan et al. 1998, the
paper's reference [8]) replaces each bit with a small counter.

Peers therefore keep this counting filter locally and export the plain
:class:`~repro.bloom.bloom_filter.BloomFilter` view — a bit is set iff
its counter is non-zero — which is what travels to neighbors.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bloom_filter import BloomFilter, element_positions

__all__ = ["CountingBloomFilter"]


class CountingBloomFilter:
    """Bloom filter with per-position counters (supports remove).

    Only the non-zero counters are stored (position → count), so a
    filter costs what it holds — a peer that has cached nothing has no
    counters — and a counter has no ceiling.  The exported bit vector
    — bit set iff counter non-zero — is maintained incrementally as one
    int, so :meth:`to_bloom_filter` is O(words) instead of an O(bits)
    counter scan per neighbor push.
    """

    __slots__ = ("_bits", "_hashes", "_counters", "_elements", "_bitvec")

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self._bits = bits
        self._hashes = hashes
        self._counters: dict[int, int] = {}
        self._bitvec = 0
        # Multiset of inserted elements: removal of a never-inserted (or
        # already fully removed) element must be rejected, otherwise the
        # counters would underflow and membership would break.
        self._elements: dict[str, int] = {}

    @property
    def bits(self) -> int:
        """Filter size m in bits."""
        return self._bits

    @property
    def hashes(self) -> int:
        """Number of hash functions k."""
        return self._hashes

    @property
    def element_count(self) -> int:
        """Total multiplicity currently inserted."""
        return sum(self._elements.values())

    @property
    def distinct_element_count(self) -> int:
        """Number of distinct elements currently inserted."""
        return len(self._elements)

    def add(self, element: str) -> None:
        """Insert ``element`` (multiset semantics: repeats stack)."""
        counters = self._counters
        for pos in element_positions(element, self._bits, self._hashes):
            count = counters.get(pos, 0)
            if count == 0:
                self._bitvec |= 1 << pos
            counters[pos] = count + 1
        self._elements[element] = self._elements.get(element, 0) + 1

    def add_all(self, elements: Iterable[str]) -> None:
        """Insert every element of ``elements``."""
        for element in elements:
            self.add(element)

    def remove(self, element: str) -> None:
        """Remove one occurrence of ``element``.

        Raises ``KeyError`` if the element is not currently present —
        silently decrementing counters for absent elements is the
        classic counting-filter corruption bug.
        """
        count = self._elements.get(element, 0)
        if count == 0:
            raise KeyError(f"cannot remove absent element {element!r}")
        counters = self._counters
        for pos in element_positions(element, self._bits, self._hashes):
            left = counters[pos] - 1
            if left:
                counters[pos] = left
            else:
                del counters[pos]
                self._bitvec &= ~(1 << pos)
        if count == 1:
            del self._elements[element]
        else:
            self._elements[element] = count - 1

    def discard(self, element: str) -> bool:
        """Like :meth:`remove`, but returns ``False`` instead of raising."""
        if self._elements.get(element, 0) == 0:
            return False
        self.remove(element)
        return True

    def __contains__(self, element: str) -> bool:
        bitvec = self._bitvec
        return all(
            (bitvec >> pos) & 1
            for pos in element_positions(element, self._bits, self._hashes)
        )

    def contains_all(self, elements: Iterable[str]) -> bool:
        """Whether every element tests positive."""
        return all(element in self for element in elements)

    def clear(self) -> None:
        """Reset to empty."""
        self._counters.clear()
        self._bitvec = 0
        self._elements.clear()

    def max_counter(self) -> int:
        """Largest counter value (4-bit counters suffice in practice;
        this lets tests verify we stay in that regime)."""
        return max(self._counters.values(), default=0)

    def bit_int(self) -> int:
        """The exported bit vector as one int (bit ``p`` = position
        ``p``), comparable with :meth:`BloomFilter.bit_int`: "has anything
        changed since the last push?" is one int compare."""
        return self._bitvec

    def to_bloom_filter(self) -> BloomFilter:
        """Export the plain bit-vector view (what neighbors receive).

        O(words): the exported vector is maintained incrementally, so
        the per-push-period counter scan is gone.
        """
        return BloomFilter.from_bit_int(self._bitvec, self._bits, self._hashes)

    def set_positions(self) -> list[int]:
        """Sorted positions with non-zero counters."""
        out: list[int] = []
        v = self._bitvec
        while v:
            low = v & -v
            out.append(low.bit_length() - 1)
            v ^= low
        return out

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(bits={self._bits}, hashes={self._hashes}, "
            f"elements={self.element_count})"
        )
