"""The plain response index used by the Dicas baselines (§3.2).

"An index of f contains the filename and the IP address of some
provider peer p_f.  Therefore, each peer n maintains a cache of file
indexes called response index, RI_n."

One provider per filename, bounded capacity, recency replacement
(the paper's §4.1.2 observation that cached objects must be kept for a
small amount of time applies to Dicas too — recency eviction is the
common implementation).  Lookup matches any cached filename containing
*all* the query's keywords.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from ..files.keywords import tokenize_filename
from ..overlay.messages import ProviderEntry

__all__ = ["PlainIndexCache"]


class PlainIndexCache:
    """filename → single :class:`ProviderEntry`, LRU-bounded."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[str, ProviderEntry] = OrderedDict()
        self._keywords: dict[str, frozenset] = {}

    @property
    def capacity(self) -> int:
        """Maximum number of cached filenames."""
        return self._capacity

    @property
    def size(self) -> int:
        """Number of cached filenames."""
        return len(self._entries)

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

    def get(self, filename: str) -> ProviderEntry | None:
        """The cached provider for an exact filename, or ``None``."""
        return self._entries.get(filename)

    def remove(self, filename: str) -> bool:
        """Drop ``filename``; returns whether it was present."""
        if filename not in self._entries:
            return False
        del self._entries[filename]
        del self._keywords[filename]
        return True

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

    def __contains__(self, filename: str) -> bool:
        return filename in self._entries
