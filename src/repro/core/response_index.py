"""Locaware's location-aware response index (§4.1).

Where Dicas caches *one* provider per filename, Locaware's response
index holds, per cached filename, **several provider addresses with
their locIds** (§4.1.1-4.1.2):

- every passing response contributes all its advertised providers
  *plus the requestor* (which will hold the file shortly — natural
  replication);
- per-filename provider lists are recency-ordered and bounded: "the
  most recent p_f entries replace the oldest ones" (§4.1.2);
- the filename population itself is bounded by the peer-controlled
  cache capacity (§4.1.2, §5.1: "an enlarged response index with 50
  filenames"), evicting least-recently-refreshed filenames.

Evictions are reported to the caller so the keyword Bloom filter can
be kept in sync (§4.2: "existing ones discarded").
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from ..files.keywords import tokenize_filename
from ..overlay.messages import ProviderEntry

__all__ = ["IndexUpdate", "LocationAwareIndex"]


@dataclass(frozen=True)
class IndexUpdate:
    """What changed during a :meth:`LocationAwareIndex.put` call."""

    inserted_filename: bool
    evicted_filenames: tuple[str, ...]


class LocationAwareIndex:
    """filename → recency-ordered, bounded list of (provider, locId)."""

    def __init__(self, capacity: int, max_providers_per_file: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_providers_per_file < 1:
            raise ValueError(
                f"max_providers_per_file must be >= 1, got {max_providers_per_file}"
            )
        self._capacity = capacity
        self._max_providers = max_providers_per_file
        # filename -> (peer_id -> locid); both OrderedDicts use
        # insertion order as recency, oldest first.
        self._files: OrderedDict[str, OrderedDict[int, int | None]] = OrderedDict()
        self._keywords: dict[str, frozenset] = {}

    # -- capacity ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of cached filenames."""
        return self._capacity

    @property
    def max_providers_per_file(self) -> int:
        """Provider entries retained per filename."""
        return self._max_providers

    @property
    def size(self) -> int:
        """Number of cached filenames."""
        return len(self._files)

    def filenames(self) -> list[str]:
        """Cached filenames, least recently refreshed first."""
        return list(self._files)

    # -- updates ------------------------------------------------------------

    def put(self, filename: str, providers: Iterable[ProviderEntry]) -> IndexUpdate:
        """Merge provider entries for ``filename`` (most recent last).

        Refreshes the filename's recency, dedupes providers by peer id
        (re-adding moves an entry to most-recent and refreshes its
        locId), trims the oldest providers beyond the per-file bound,
        and evicts least-recently-refreshed filenames beyond capacity.
        """
        inserted = filename not in self._files
        if inserted:
            self._files[filename] = OrderedDict()
            self._keywords[filename] = frozenset(tokenize_filename(filename))
        else:
            self._files.move_to_end(filename)
        entry = self._files[filename]
        for provider in providers:
            if provider.peer_id in entry:
                del entry[provider.peer_id]
            entry[provider.peer_id] = provider.locid
        while len(entry) > self._max_providers:
            entry.popitem(last=False)
        evicted: list[str] = []
        while len(self._files) > self._capacity:
            victim, _ = self._files.popitem(last=False)
            del self._keywords[victim]
            evicted.append(victim)
        return IndexUpdate(
            inserted_filename=inserted, evicted_filenames=tuple(evicted)
        )

    def remove_provider(self, filename: str, peer_id: int) -> bool:
        """Drop a (stale) provider entry; returns whether it existed.

        The filename itself stays cached even with zero providers left
        (it may be refreshed by the next passing response); callers may
        :meth:`remove_filename` empty entries if they prefer.
        """
        entry = self._files.get(filename)
        if entry is None or peer_id not in entry:
            return False
        del entry[peer_id]
        return True

    def remove_filename(self, filename: str) -> bool:
        """Evict ``filename`` outright; returns whether it was cached."""
        if filename not in self._files:
            return False
        del self._files[filename]
        del self._keywords[filename]
        return True

    # -- lookups -----------------------------------------------------------

    def providers_of(self, filename: str) -> list[ProviderEntry]:
        """Provider entries for ``filename``, most recent first."""
        entry = self._files.get(filename)
        if entry is None:
            return []
        return [
            ProviderEntry(peer_id, locid)
            for peer_id, locid in reversed(entry.items())
        ]

    def lookup(
        self, query_keywords: Iterable[str]
    ) -> tuple[str, list[ProviderEntry]] | None:
        """Most recently refreshed cached filename matching all keywords,
        with its providers (most recent first)."""
        if not self._files:
            return None
        wanted = set(query_keywords)
        if not wanted:
            return None
        for filename in reversed(self._files):
            if wanted <= self._keywords[filename]:
                return filename, self.providers_of(filename)
        return None

    def provider_count(self, filename: str) -> int:
        """Number of providers currently cached for ``filename``."""
        entry = self._files.get(filename)
        return len(entry) if entry else 0

    def total_provider_entries(self) -> int:
        """Total provider entries across all filenames (storage metric)."""
        return sum(len(entry) for entry in self._files.values())

    def __contains__(self, filename: str) -> bool:
        return filename in self._files
