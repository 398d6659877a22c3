"""A plain bit-vector Bloom filter.

This is the structure exchanged between Locaware neighbors (§4.2):
peer ``n`` summarises the keywords of every filename cached in its
response index as ``BF_n`` and ships it to neighbors, who route queries
by membership tests against the stored copies.

Hashing uses the Kirsch–Mitzenmacher double-hashing scheme: two 64-bit
values are drawn from a single BLAKE2b digest of the element, and the
``i``-th probe position is ``(h1 + i·h2) mod m``.  BLAKE2b keeps
membership deterministic across processes and Python versions (the
built-in ``hash()`` is salted per process, which would break
reproducibility of routing decisions).

Hot-path layout: the probe positions of an element depend only on
``(element, bits, hashes)``, so they are memoised — one BLAKE2b per
*distinct* keyword per filter geometry, not one per membership test;
the run that ends a cell empties them (:func:`positions_cache_clear`).
The bit vector itself is a single Python int (:class:`BloomFilter`), so
an insert or a k-probe membership test is one mask OR/AND on a 1200-bit
word instead of k byte-indexed loads, and union/compare are O(words).
The original bytearray layout is kept as an oracle next to the tests
that use it (``tests/reference_bloom.py``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import lru_cache

__all__ = ["element_positions", "element_mask", "BloomFilter"]


@lru_cache(maxsize=None)
def _positions_cached(element: str, bits: int, hashes: int) -> tuple[int, ...]:
    digest = hashlib.blake2b(element.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full-period stride
    return tuple((h1 + i * h2) % bits for i in range(hashes))


def element_positions(element: str, bits: int, hashes: int) -> tuple[int, ...]:
    """The probe positions of ``element`` in an ``(m=bits, k=hashes)`` filter.

    Exposed at module level because the plain and counting filters must
    agree on positions exactly (the counting filter exports a plain
    bit-vector view of itself).  Memoised for one cell: the keyword
    vocabulary of a run is small and static, so each distinct
    ``(element, bits, hashes)`` triple pays for its BLAKE2b digest once
    per cell.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    if hashes <= 0:
        raise ValueError(f"hashes must be positive, got {hashes}")
    return _positions_cached(element, bits, hashes)


@lru_cache(maxsize=None)
def element_mask(element: str, bits: int, hashes: int) -> int:
    """The element's probe positions as an OR-ready bit mask."""
    mask = 0
    for pos in element_positions(element, bits, hashes):
        mask |= 1 << pos
    return mask


@lru_cache(maxsize=None)
def _combined_mask(elements: tuple[str, ...], bits: int, hashes: int) -> int:
    """The OR of :func:`element_mask` over ``elements`` (0 for ``()``).

    A filter contains every element iff it covers this mask, so a query's
    keyword tuple costs one AND per filter tested instead of one per
    keyword, and a dict lookup after its first hop until the cell ends.
    """
    mask = 0
    for element in elements:
        mask |= element_mask(element, bits, hashes)
    return mask


def positions_cache_info():
    """Cache statistics for the memoised position function (for tests)."""
    return _positions_cached.cache_info()


def positions_cache_clear() -> None:
    """Drop the memoised positions and masks (at the end of a cell)."""
    _positions_cached.cache_clear()
    element_mask.cache_clear()
    _combined_mask.cache_clear()


class BloomFilter:
    """A fixed-size Bloom filter over strings.

    Supports insertion, membership, union, and (de)serialisation of the
    raw bit vector.  Deletion is *not* supported here — peers that must
    delete (cache evictions) keep a :class:`~repro.bloom.counting.
    CountingBloomFilter` locally and export this plain form to
    neighbors.

    The vector is one Python int, bit ``p`` of the integer being bit
    position ``p`` of the filter; :meth:`to_bytes` serialises it
    little-endian, which is byte-for-byte the layout of the original
    bytearray implementation (bit ``p`` lives in byte ``p >> 3`` at
    in-byte offset ``p & 7``).
    """

    __slots__ = ("_bits", "_hashes", "_value", "_inserted")

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self._bits = bits
        self._hashes = hashes
        self._value = 0
        self._inserted = 0

    # -- core operations ----------------------------------------------------

    def add(self, element: str) -> None:
        """Insert ``element``."""
        self._value |= element_mask(element, self._bits, self._hashes)
        self._inserted += 1

    def add_all(self, elements: Iterable[str]) -> None:
        """Insert every element of ``elements``."""
        for element in elements:
            self.add(element)

    def __contains__(self, element: str) -> bool:
        mask = element_mask(element, self._bits, self._hashes)
        return self._value & mask == mask

    def contains_all(self, elements: Iterable[str]) -> bool:
        """Whether every element tests positive (the §4.2 query match rule)."""
        if type(elements) is not tuple:
            elements = tuple(elements)
        mask = _combined_mask(elements, self._bits, self._hashes)
        return self._value & mask == mask

    def clear(self) -> None:
        """Reset to the empty filter."""
        self._value = 0
        self._inserted = 0

    # -- combination -----------------------------------------------------

    def union_with(self, other: BloomFilter) -> None:
        """In-place union; both filters must share (bits, hashes)."""
        self._check_compatible(other)
        self._value |= other.bit_int()
        self._inserted += other._inserted

    def _check_compatible(self, other: BloomFilter) -> None:
        if self._bits != other._bits or self._hashes != other._hashes:
            raise ValueError(
                f"incompatible filters: ({self._bits}, {self._hashes}) vs "
                f"({other._bits}, {other._hashes})"
            )

    # -- views ----------------------------------------------------------------

    @property
    def bits(self) -> int:
        """Filter size m in bits."""
        return self._bits

    @property
    def hashes(self) -> int:
        """Number of hash functions k."""
        return self._hashes

    @property
    def approximate_insertions(self) -> int:
        """Insertions performed (an upper bound on distinct elements)."""
        return self._inserted

    def set_bit_count(self) -> int:
        """Number of 1 bits in the vector."""
        return self._value.bit_count()

    def fill_fraction(self) -> float:
        """Fraction of bits set."""
        return self.set_bit_count() / self._bits

    def set_positions(self) -> list[int]:
        """Sorted positions of every set bit."""
        out: list[int] = []
        v = self._value
        while v:
            low = v & -v
            out.append(low.bit_length() - 1)
            v ^= low
        return out

    def get_bit(self, pos: int) -> bool:
        """Whether bit ``pos`` is set."""
        if not (0 <= pos < self._bits):
            raise IndexError(f"bit position {pos} out of range [0, {self._bits})")
        return bool((self._value >> pos) & 1)

    def set_bit(self, pos: int, value: bool) -> None:
        """Force bit ``pos`` to ``value`` (used when applying deltas)."""
        if not (0 <= pos < self._bits):
            raise IndexError(f"bit position {pos} out of range [0, {self._bits})")
        if value:
            self._value |= 1 << pos
        else:
            self._value &= ~(1 << pos)

    def bit_int(self) -> int:
        """The bit vector as one int (bit ``p`` = filter position ``p``)."""
        return self._value

    def to_bytes(self) -> bytes:
        """The raw bit vector (length ``ceil(bits / 8)``)."""
        return self._value.to_bytes((self._bits + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, bits: int, hashes: int) -> BloomFilter:
        """Rebuild a filter from :meth:`to_bytes` output."""
        bf = cls(bits, hashes)
        if len(data) != (bits + 7) // 8:
            raise ValueError(
                f"expected {(bits + 7) // 8} bytes for a {bits}-bit filter, "
                f"got {len(data)}"
            )
        bf._value = int.from_bytes(data, "little")
        return bf

    @classmethod
    def from_bit_int(cls, value: int, bits: int, hashes: int) -> BloomFilter:
        """Build a filter whose vector is ``value`` (one int, bit p = pos p).

        The O(words) export path used by the counting filter; also
        implemented by the bytearray reference filter of the tests, so
        callers can stay agnostic of the backend class.
        """
        bf = cls(bits, hashes)
        bf._value = value
        return bf

    def copy(self) -> BloomFilter:
        """An independent copy of this filter."""
        clone = BloomFilter(self._bits, self._hashes)
        clone._value = self._value
        clone._inserted = self._inserted
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self._bits == other._bits
            and self._hashes == other._hashes
            and self._value == other._value
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self._bits}, hashes={self._hashes}, "
            f"set={self.set_bit_count()})"
        )
