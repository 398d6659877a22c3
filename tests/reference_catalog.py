"""The record-backed file catalog, as ``src/`` held it before a file
became its sorted keyword tuple.

The oracle ``tests/test_property_catalog.py`` holds
:class:`repro.files.catalog.FileCatalog` against: a slotted
:class:`~repro.files.catalog.FileRecord` per file carrying its joined
filename and a ``frozenset`` of its keywords, and a filename → record
map that is both the duplicate check and the by-name lookup.  Same
draws, same answers, about 10 MB more at 6000 peers.  References live
with the tests that use them (the ``tests/reference_graph.py``
pattern), not in ``src/``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from functools import cached_property

from repro.files.catalog import FileRecord
from repro.files.keywords import FILENAME_SEPARATOR, KeywordPool

__all__ = ["RecordCatalog"]


class RecordCatalog:
    """The universe of shareable files.

    Filenames are guaranteed distinct: generation re-draws keyword
    combinations until unseen (with pools as sparse as the paper's —
    C(9000, 3) ≈ 1.2 · 10¹¹ combinations for 3000 files — re-draws are
    vanishingly rare, but the guarantee matters for correctness).
    """

    def __init__(self, records: Sequence[FileRecord], pool: KeywordPool) -> None:
        if not records:
            raise ValueError("a catalog needs at least one file")
        by_filename: dict[str, FileRecord] = {}
        for record in records:
            if record.filename in by_filename:
                raise ValueError(f"duplicate filename {record.filename!r} in catalog")
            by_filename[record.filename] = record
        self._assign(list(records), pool, by_filename)

    def _assign(
        self,
        records: list[FileRecord],
        pool: KeywordPool,
        by_filename: dict[str, FileRecord],
    ) -> None:
        self._records = records
        self._pool = pool
        self._by_filename = by_filename

    @cached_property
    def _inverted(self) -> dict[str, set[int]]:
        inverted: dict[str, set[int]] = {}
        for record in self._records:
            for kw in record.keywords:
                inverted.setdefault(kw, set()).add(record.file_id)
        return inverted

    # -- construction ----------------------------------------------------

    @classmethod
    def generate(
        cls,
        num_files: int,
        keywords_per_file: int,
        pool: KeywordPool,
        rng: random.Random,
    ) -> RecordCatalog:
        """Generate the paper's file pool (distinct keyword combinations)."""
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        if keywords_per_file > pool.size:
            raise ValueError(
                f"cannot draw {keywords_per_file} distinct keywords "
                f"from a pool of {pool.size}"
            )
        # The draws of KeywordPool.sample_filename_keywords, made on the
        # vocabulary itself.  Its tokens are distinct and need no
        # separator check, so a draw's canonical filename
        # (``join_keywords``) is its sorted join, and a repeated filename
        # is a repeated keyword set: the by-filename map is the
        # duplicate check and the catalog's index in one.
        vocabulary = pool._keywords
        size = len(vocabulary)
        bits = size.bit_length()
        getrandbits = rng.getrandbits
        # random.Random.sample(vocabulary, k) takes its set branch when
        # size > 21 and k <= 5: that branch is drawn inline below, the
        # same getrandbits words in the same order
        # (tests/test_property_inline_draws.py pins it to the stdlib).
        inline = 0 <= keywords_per_file <= 5 and size > 21
        sample = rng.sample
        join = FILENAME_SEPARATOR.join
        records: list[FileRecord] = []
        by_filename: dict[str, FileRecord] = {}
        attempts_left = num_files * 100
        while len(records) < num_files:
            if attempts_left <= 0:
                raise ValueError(
                    "could not generate enough distinct filenames; "
                    "keyword pool too small for the requested catalog"
                )
            attempts_left -= 1
            if inline:
                picked: list[int] = []
                for _ in range(keywords_per_file):
                    r = getrandbits(bits)
                    while r >= size or r in picked:
                        r = getrandbits(bits)
                    picked.append(r)
                keywords = [vocabulary[r] for r in picked]
            else:
                keywords = sample(vocabulary, keywords_per_file)
            filename = join(sorted(keywords))
            if filename in by_filename:
                continue
            record = by_filename[filename] = FileRecord(
                len(records), filename, frozenset(keywords)
            )
            records.append(record)
        catalog = cls.__new__(cls)
        catalog._assign(records, pool, by_filename)
        return catalog

    # -- lookups -------------------------------------------------------------

    @property
    def num_files(self) -> int:
        """Number of files in the pool."""
        return len(self._records)

    @property
    def keyword_pool(self) -> KeywordPool:
        """The vocabulary the catalog draws from."""
        return self._pool

    def record(self, file_id: int) -> FileRecord:
        """The record for ``file_id``."""
        return self._records[file_id]

    def filename(self, file_id: int) -> str:
        """Canonical filename string of ``file_id``."""
        return self._records[file_id].filename

    def keywords(self, file_id: int) -> frozenset[str]:
        """Keyword set of ``file_id``."""
        return self._records[file_id].keywords

    def by_filename(self, filename: str) -> FileRecord | None:
        """The record with this exact filename, or ``None``."""
        return self._by_filename.get(filename)

    def all_records(self) -> list[FileRecord]:
        """A copy of every record, in file-id order."""
        return list(self._records)

    # -- matching -----------------------------------------------------------

    def matching_files(self, query_keywords: Iterable[str]) -> set[int]:
        """Ground truth: ids of every file satisfying the query.

        Intersects inverted-index posting lists, smallest first.
        Returns the empty set when any keyword is unknown.
        """
        keyword_list = list(query_keywords)
        if not keyword_list:
            return set()
        postings: list[set[int]] = []
        for kw in keyword_list:
            posting = self._inverted.get(kw)
            if not posting:
                return set()
            postings.append(posting)
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        return result

    def file_matches(self, file_id: int, query_keywords: Iterable[str]) -> bool:
        """Whether the given file satisfies the query."""
        keywords = self._records[file_id].keywords
        return all(kw in keywords for kw in query_keywords)

    def keyword_document_frequency(self, keyword: str) -> int:
        """How many catalog files contain ``keyword``."""
        posting = self._inverted.get(keyword)
        return len(posting) if posting else 0
