"""The single-provider response index Dicas kept until it shared Locaware's.

The oracle ``tests/test_property_caches.py`` holds
:class:`repro.protocols.index_cache.LocationAwareIndex` at one provider
per filename against: filename → one :class:`ProviderEntry`, bounded
capacity, least-recently-refreshed eviction, lookup of the most recent
filename carrying all the query's keywords (§3.2).  It is the
``put`` / ``lookup`` / ``filenames`` of the ``PlainIndexCache`` that
``src/`` held before Dicas's index became Locaware's at p_f = 1.
References live with the tests that use them (the
``tests/reference_graph.py`` pattern), not in ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from repro.files.keywords import tokenize_filename
from repro.overlay.messages import ProviderEntry

__all__ = ["PlainIndexCache"]


class PlainIndexCache:
    """filename → single :class:`ProviderEntry`, LRU-bounded."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[str, ProviderEntry] = OrderedDict()
        self._keywords: dict[str, frozenset] = {}

    def filenames(self) -> list[str]:
        """Cached filenames, least-recently-updated first."""
        return list(self._entries)

    def put(self, filename: str, provider: ProviderEntry) -> str | None:
        """Cache/update ``filename``; returns an evicted filename or ``None``."""
        if filename in self._entries:
            self._entries[filename] = provider
            self._entries.move_to_end(filename)
            return None
        self._entries[filename] = provider
        self._keywords[filename] = frozenset(tokenize_filename(filename))
        if len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            del self._keywords[evicted]
            return evicted
        return None

    def lookup(self, query_keywords: Iterable[str]) -> tuple[str, ProviderEntry] | None:
        """Most recently refreshed cached filename matching all keywords."""
        if not self._entries:
            return None
        wanted = set(query_keywords)
        if not wanted:
            return None
        for filename in reversed(self._entries):
            if wanted <= self._keywords[filename]:
                return filename, self._entries[filename]
        return None
