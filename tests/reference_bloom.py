"""Bytearray-backed reference implementation of the Bloom filter.

The oracle the property suites hold :class:`repro.bloom.bloom_filter.BloomFilter`
against (``tests/test_substrate_equivalence.py``,
``tests/test_property_bloom.py``) and the seed-style substrate
``benchmarks/test_perf_scale.py`` times the int-backed vector against:
one byte-indexed load or store per probe, the layout the filter had
before its vector became one Python int.

Lived in ``src/repro/bloom/bloom_filter.py`` as ``ByteBloomFilter``
until it had no caller there; a reference implementation belongs with
the tests that use it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bloom.bloom_filter import element_positions

__all__ = ["ByteBloomFilter"]


class ByteBloomFilter:
    """The original bytearray-backed filter, retained as a reference.

    Same API and same serialised layout as ``BloomFilter``; used by the
    substrate-equivalence suite to prove the int-backed vector changes
    nothing observable.
    """

    __slots__ = ("_bits", "_hashes", "_vector", "_inserted")

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        if hashes <= 0:
            raise ValueError(f"hashes must be positive, got {hashes}")
        self._bits = bits
        self._hashes = hashes
        self._vector = bytearray((bits + 7) // 8)
        self._inserted = 0

    def add(self, element: str) -> None:
        for pos in element_positions(element, self._bits, self._hashes):
            self._vector[pos >> 3] |= 1 << (pos & 7)
        self._inserted += 1

    def add_all(self, elements: Iterable[str]) -> None:
        for element in elements:
            self.add(element)

    def __contains__(self, element: str) -> bool:
        return all(
            self._vector[pos >> 3] & (1 << (pos & 7))
            for pos in element_positions(element, self._bits, self._hashes)
        )

    def contains_all(self, elements: Iterable[str]) -> bool:
        return all(element in self for element in elements)

    def clear(self) -> None:
        for i in range(len(self._vector)):
            self._vector[i] = 0
        self._inserted = 0

    def union_with(self, other: ByteBloomFilter) -> None:
        if self._bits != other._bits or self._hashes != other._hashes:
            raise ValueError(
                f"incompatible filters: ({self._bits}, {self._hashes}) vs "
                f"({other._bits}, {other._hashes})"
            )
        for i, byte in enumerate(other._vector):
            self._vector[i] |= byte
        self._inserted += other._inserted

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def hashes(self) -> int:
        return self._hashes

    @property
    def approximate_insertions(self) -> int:
        return self._inserted

    def set_bit_count(self) -> int:
        return sum(byte.bit_count() for byte in self._vector)

    def fill_fraction(self) -> float:
        return self.set_bit_count() / self._bits

    def set_positions(self) -> list[int]:
        out: list[int] = []
        for pos in range(self._bits):
            if self._vector[pos >> 3] & (1 << (pos & 7)):
                out.append(pos)
        return out

    def get_bit(self, pos: int) -> bool:
        if not (0 <= pos < self._bits):
            raise IndexError(f"bit position {pos} out of range [0, {self._bits})")
        return bool(self._vector[pos >> 3] & (1 << (pos & 7)))

    def set_bit(self, pos: int, value: bool) -> None:
        if not (0 <= pos < self._bits):
            raise IndexError(f"bit position {pos} out of range [0, {self._bits})")
        if value:
            self._vector[pos >> 3] |= 1 << (pos & 7)
        else:
            self._vector[pos >> 3] &= ~(1 << (pos & 7))

    def bit_int(self) -> int:
        return int.from_bytes(bytes(self._vector), "little")

    def to_bytes(self) -> bytes:
        return bytes(self._vector)

    @classmethod
    def from_bytes(cls, data: bytes, bits: int, hashes: int) -> ByteBloomFilter:
        bf = cls(bits, hashes)
        if len(data) != len(bf._vector):
            raise ValueError(
                f"expected {len(bf._vector)} bytes for a {bits}-bit filter, "
                f"got {len(data)}"
            )
        bf._vector = bytearray(data)
        return bf

    @classmethod
    def from_bit_int(cls, value: int, bits: int, hashes: int) -> ByteBloomFilter:
        bf = cls(bits, hashes)
        bf._vector = bytearray(value.to_bytes((bits + 7) // 8, "little"))
        return bf

    def copy(self) -> ByteBloomFilter:
        clone = ByteBloomFilter(self._bits, self._hashes)
        clone._vector = bytearray(self._vector)
        clone._inserted = self._inserted
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ByteBloomFilter):
            return NotImplemented
        return (
            self._bits == other._bits
            and self._hashes == other._hashes
            and self._vector == other._vector
        )

    def __repr__(self) -> str:
        return (
            f"ByteBloomFilter(bits={self._bits}, hashes={self._hashes}, "
            f"set={self.set_bit_count()})"
        )
