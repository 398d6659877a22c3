"""Population-sized reference implementations of two per-peer structures.

The oracles ``tests/test_property_sized_by_content.py`` holds
:class:`repro.files.storage.FileStore` and
:class:`repro.bloom.counting.CountingBloomFilter` against.  Both are
what ``src/`` held until those classes were sized by their content: a
``set`` per keyword per peer, and a zero-filled ``array('H')`` of one
counter per filter bit per peer.  Same answers, more memory — and the
array's 65 535 ceiling, which is why the counter reference is only
driven below it.  References live with the tests that use them
(the ``tests/reference_graph.py`` pattern), not in ``src/``.
"""

from __future__ import annotations

import hashlib
from array import array

__all__ = ["ArrayCountingBloomFilter", "SetFileStore"]


class SetFileStore:
    """``FileStore`` with one mutable ``set`` of file ids per keyword."""

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        self._files: set[int] = set()
        self._inverted: dict[str, set[int]] = {}

    @property
    def size(self) -> int:
        return len(self._files)

    def file_ids(self) -> set[int]:
        return set(self._files)

    def contains(self, file_id: int) -> bool:
        return file_id in self._files

    def add(self, file_id: int) -> bool:
        if file_id in self._files:
            return False
        self._files.add(file_id)
        for kw in self._catalog.keywords(file_id):
            self._inverted.setdefault(kw, set()).add(file_id)
        return True

    def add_many(self, file_ids) -> int:
        return sum(self.add(file_id) for file_id in file_ids)

    def remove(self, file_id: int) -> bool:
        if file_id not in self._files:
            return False
        self._files.discard(file_id)
        for kw in self._catalog.keywords(file_id):
            self._inverted[kw].discard(file_id)
            if not self._inverted[kw]:
                del self._inverted[kw]
        return True

    def clear(self) -> None:
        self._files.clear()
        self._inverted.clear()

    def matching_files(self, query_keywords) -> set[int]:
        postings = [self._inverted.get(kw, set()) for kw in query_keywords]
        return set.intersection(*postings) if postings else set()

    def first_match(self, query_keywords) -> int | None:
        return min(self.matching_files(query_keywords), default=None)


class ArrayCountingBloomFilter:
    """``CountingBloomFilter`` with a counter per bit, set or not.

    Nothing is maintained incrementally: the bit vector is read off the
    counters on every call.  The probe positions are hashed here, by the
    double-hashing construction ``src/`` folds into a mask, so the
    oracle shares no code with the filter it checks.
    """

    def __init__(self, bits: int, hashes: int) -> None:
        self._bits = bits
        self._hashes = hashes
        self._counters = array("H", bytes(2 * bits))
        self._elements: dict[str, int] = {}

    def _positions(self, element: str) -> list[int]:
        digest = hashlib.blake2b(element.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        return [(h1 + i * h2) % self._bits for i in range(self._hashes)]

    def add(self, element: str) -> None:
        for pos in self._positions(element):
            self._counters[pos] += 1
        self._elements[element] = self._elements.get(element, 0) + 1

    def add_all(self, elements) -> None:
        for element in elements:
            self.add(element)

    def discard(self, element: str) -> bool:
        if element not in self._elements:
            return False
        for pos in self._positions(element):
            self._counters[pos] -= 1
        self._elements[element] -= 1
        if not self._elements[element]:
            del self._elements[element]
        return True

    def bit_int(self) -> int:
        return sum(1 << pos for pos, count in enumerate(self._counters) if count)
