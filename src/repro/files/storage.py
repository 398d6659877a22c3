"""Per-peer shared-file storage with a local inverted keyword index.

Every peer shares a set of files: its initial endowment (3 random files
in the paper's setup) plus every file it successfully downloads —
that is the *natural replication* Locaware leverages (§4.1.2).  The
store indexes its contents by keyword so that the per-message local
lookup done by every protocol ("can I satisfy this query from my own
files?", §3.1) is proportional to the smallest posting list rather
than to the store size.  The postings are the whole store: a file is
shared iff it is in the posting of its first keyword, and a count keeps
the size.
"""

from __future__ import annotations

from collections.abc import Iterable

from .catalog import FileCatalog

__all__ = ["FileStore"]


class FileStore:
    """The set of files a single peer currently shares."""

    __slots__ = ("_catalog", "_size", "_inverted")

    def __init__(self, catalog: FileCatalog) -> None:
        self._catalog = catalog
        self._size = 0
        # keyword -> ids of the shared files carrying it.  Immutable
        # tuples replaced on change: a file's keywords share one
        # ``(file_id,)``, so a posting costs what it holds.
        self._inverted: dict[str, tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        """Number of files currently shared."""
        return self._size

    def file_ids(self) -> set[int]:
        """A fresh set of the shared file ids."""
        return set().union(*self._inverted.values())

    def contains(self, file_id: int) -> bool:
        """Whether ``file_id`` is currently shared."""
        return file_id in self._inverted.get(self._catalog.keywords(file_id)[0], ())

    def add(self, file_id: int) -> bool:
        """Share ``file_id``.  Returns ``False`` if it was already shared."""
        keywords = self._catalog.keywords(file_id)
        inverted = self._inverted
        if file_id in inverted.get(keywords[0], ()):
            return False
        own = (file_id,)
        for kw in keywords:
            posting = inverted.get(kw)
            inverted[kw] = own if posting is None else posting + own
        self._size += 1
        return True

    def add_many(self, file_ids: Iterable[int]) -> int:
        """Share several files; returns how many were newly added.

        One pass, with the postings :meth:`add` would leave.
        """
        inverted = self._inverted
        keywords = self._catalog.keywords
        added = 0
        for file_id in file_ids:
            file_keywords = keywords(file_id)
            if file_id in inverted.get(file_keywords[0], ()):
                continue
            own = (file_id,)
            for kw in file_keywords:
                posting = inverted.get(kw)
                inverted[kw] = own if posting is None else posting + own
            added += 1
        self._size += added
        return added

    def remove(self, file_id: int) -> bool:
        """Stop sharing ``file_id``.  Returns ``False`` if absent."""
        if not self.contains(file_id):
            return False
        self._size -= 1
        inverted = self._inverted
        for kw in self._catalog.keywords(file_id):
            posting = tuple(fid for fid in inverted[kw] if fid != file_id)
            if posting:
                inverted[kw] = posting
            else:
                del inverted[kw]
        return True

    def clear(self) -> None:
        """Drop every shared file (peer departure)."""
        self._size = 0
        self._inverted.clear()

    def matching_files(self, query_keywords: Iterable[str]) -> set[int]:
        """Locally shared files satisfying the query (all keywords present)."""
        keyword_list = list(query_keywords)
        if not keyword_list:
            return set()
        postings: list[tuple[int, ...]] = []
        for kw in keyword_list:
            posting = self._inverted.get(kw)
            if not posting:
                return set()
            postings.append(posting)
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result.intersection_update(posting)
            if not result:
                break
        return result

    def first_match(self, query_keywords: Iterable[str]) -> int | None:
        """Any one locally shared file satisfying the query, or ``None``.

        Deterministic: returns the smallest matching file id.  Asked of
        every peer a query copy reaches, and nearly always a miss, so it
        leaves at the first keyword nothing here carries, before
        :meth:`matching_files` builds anything.
        """
        if type(query_keywords) is not tuple:
            query_keywords = tuple(query_keywords)
        inverted = self._inverted
        for kw in query_keywords:
            if kw not in inverted:
                return None
        matches = self.matching_files(query_keywords)
        return min(matches) if matches else None
