"""The response index RI_n shared by Dicas, Dicas-Keys and Locaware.

"An index of f contains the filename and the IP address of some
provider peer p_f.  Therefore, each peer n maintains a cache of file
indexes called response index, RI_n" (§3.2).  Locaware's RI is the same
filename cache holding, per cached filename, **several provider
addresses with their locIds** (§4.1.1-4.1.2): "the most recent p_f
entries replace the oldest ones".  Dicas's RI is Locaware's at p_f = 1.

- per-filename provider lists are recency-ordered and bounded by p_f;
  re-adding a provider moves it to most recent and refreshes its locId;
- the filename population itself is bounded by the peer-controlled
  cache capacity (§4.1.2, §5.1: "an enlarged response index with 50
  filenames"), evicting least-recently-refreshed filenames;
- lookup matches the most recently refreshed cached filename containing
  *all* the query's keywords.

Insertions and evictions are reported to the caller, which counts them
and, for Locaware, keeps the keyword Bloom filter in sync (§4.2:
"existing ones discarded").
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

    @property
    def size(self) -> int:
        """Number of cached filenames."""
        return len(self._files)

    def filenames(self) -> list[str]:
        """Cached filenames, least recently refreshed first."""
        return list(self._files)

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

    def __contains__(self, filename: str) -> bool:
        return filename in self._files
