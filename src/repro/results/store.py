"""Content-addressed store for completed experiment cells.

One completed grid cell = one JSON document, named by the cell's
content-addressed key (:mod:`repro.results.keys`), in a sharded file
layout: ``<root>/<key[:2]>/<key>.json``, with the cell's telemetry
sidecar next to it as ``<key>.telemetry.json``.  Documents are
diffable, safe to delete individually, and a store is a directory —
copy it with ``cp -r``, share it between hosts on any filesystem where
``os.replace`` is atomic.

Encoding is strict canonical JSON (``allow_nan=False``, sorted keys),
and the store is defensive about damage it did not cause.  A document
that no longer parses (disk corruption, a partial copy, a stray
editor) is *quarantined* — renamed to ``<key>.json.corrupt``, where no
listing sees it — and reported via :class:`CorruptResultError` instead
of aborting whoever was reading; the cell simply re-runs.
:meth:`ResultStore.clean_tmp` sweeps temp files orphaned by writers
that died mid-``put``.  Concurrent runners coordinate through
:mod:`repro.results.claims`, whose ``claims/`` directory is invisible
to every reader here.

Interrupted writes never leave a truncated document a resumed run
would mistake for a completed cell: every write goes to a temp file in
the document's shard and is renamed into place only when complete, so
a half-written cell simply does not exist.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

from .keys import SIDECAR_SUFFIX, check_key, is_cell_key

__all__ = ["CorruptResultError", "ResultStore"]


class CorruptResultError(RuntimeError):
    """A stored document failed to parse and has been quarantined.

    The offending document is moved out of the store's namespace
    before this is raised, so retrying the read reports the cell as
    absent — callers recover by re-executing the cell, not by
    crashing.  ``quarantined_to`` is where it went, or None if the
    document vanished first.
    """

    def __init__(self, key: str, quarantined_to: Path | None, reason: str):
        self.key = key
        self.quarantined_to = quarantined_to
        self.reason = reason
        where = (
            f"quarantined to {quarantined_to.name}"
            if quarantined_to is not None
            else "already removed"
        )
        super().__init__(
            f"corrupt result document for key {key[:12]}… ({reason}); {where}"
        )


class ResultStore:
    """A directory of content-addressed result documents."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # File names are built by string formatting under this prefix
        # (the root with its trailing separator): a pathlib join per
        # document costs more than the ``open`` it leads to.
        self._prefix = os.path.join(self.root, "")

    def path_for(self, key: str) -> Path:
        """Where the document for ``key`` lives (whether or not it exists)."""
        return Path(self._doc_file(key))

    def _doc_file(self, key: str) -> str:
        """The document's file name; every document method comes through
        here, so this is where the key is checked."""
        check_key(key)
        return f"{self._prefix}{key[:2]}/{key}.json"

    def has(self, key: str) -> bool:
        """Whether a completed document is stored under ``key``."""
        return os.path.isfile(self._doc_file(key))

    def get(self, key: str) -> dict[str, Any]:
        """Load the document stored under ``key``.

        Raises :class:`KeyError` if absent.  A document that exists
        but does not parse as a JSON object is quarantined and
        reported as :class:`CorruptResultError` — the store heals
        itself instead of failing every future read the same way.
        """
        path = self._doc_file(key)
        try:
            raw = _read_text(path)
        except UnicodeDecodeError as error:
            raise CorruptResultError(
                key, self._quarantine(key, path), str(error)
            ) from None
        if raw is None:
            raise KeyError(f"no result stored under key {key!r}")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as error:
            raise CorruptResultError(
                key, self._quarantine(key, path), str(error)
            ) from None
        if not isinstance(document, dict):
            raise CorruptResultError(
                key,
                self._quarantine(key, path),
                f"expected a JSON object, got {type(document).__name__}",
            )
        return document

    def get_raw(self, key: str) -> str:
        """The stored document text for ``key``, exactly as persisted.

        Raises :class:`KeyError` if absent.
        """
        raw = _read_text(self._doc_file(key))
        if raw is None:
            raise KeyError(f"no result stored under key {key!r}")
        return raw

    def quarantine(self, key: str) -> Path | None:
        """Rename the document under ``key`` to ``<key>.json.corrupt``.

        Returns where it went, or None if the document vanished first —
        e.g. a concurrent reader quarantined it already.
        """
        return self._quarantine(key, self._doc_file(key))

    @staticmethod
    def _quarantine(key: str, path: str) -> Path | None:
        destination = Path(path).with_name(f"{key}.json.corrupt")
        try:
            os.replace(path, destination)
        except FileNotFoundError:
            return None
        return destination

    def clean_tmp(
        self,
        max_age_s: float = 3600.0,
        clock: Callable[[], float] = time.time,
    ) -> int:
        """Remove temp files orphaned by writers that died mid-``put``.

        Every ``<two characters>/.<anything>.tmp`` under the root older
        than ``max_age_s`` goes (a live writer's temp file is seconds
        old at most); returns how many were removed.
        """
        cutoff = clock() - max_age_s
        removed = 0
        for shard in _entries(self.root):
            if len(shard.name) != 2:
                continue
            for entry in _entries(shard.path):
                name = entry.name
                if len(name) > 4 and name.startswith(".") and name.endswith(".tmp"):
                    try:
                        if entry.stat().st_mtime <= cutoff:
                            os.unlink(entry.path)
                            removed += 1
                    except FileNotFoundError:
                        pass
        return removed

    def put(self, key: str, document: dict[str, Any]) -> Path:
        """Durably persist ``document`` under ``key``; returns its file.

        The document is serialised first — strictly
        (``allow_nan=False``), so a NaN/Infinity that slipped past the
        producer raises here instead of writing JSON no strict parser
        can read back — then written to a temp file and renamed into
        place, so concurrent readers (and a crash mid-write) only ever
        observe complete documents and an encoding error leaves no
        litter.
        """
        path = self._doc_file(key)
        encoded = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        temporary = f"{self._prefix}{key[:2]}/.{key}.{os.getpid()}.tmp"
        return _write_atomic(path, temporary, encoded + "\n")

    def delete(self, key: str) -> bool:
        """Remove the document under ``key``; False if it was absent."""
        try:
            os.unlink(self._doc_file(key))
            return True
        except FileNotFoundError:
            return False

    # -- telemetry sidecars ------------------------------------------------
    #
    # A sidecar is advisory operational metadata (wall-clock phases,
    # throughput) stored *next to* a cell document.  Its identity is
    # separate from the cell key namespace, so :meth:`keys` never
    # lists it, content-addressed keys never cover it, and resume
    # semantics ignore it entirely.

    def sidecar_path_for(self, key: str) -> Path:
        """Where the telemetry sidecar for ``key`` lives."""
        return Path(self._sidecar_file(key))

    def _sidecar_file(self, key: str) -> str:
        """:meth:`_doc_file` for sidecars, key check included."""
        check_key(key)
        return f"{self._prefix}{key[:2]}/{key}{SIDECAR_SUFFIX}"

    def put_sidecar(self, key: str, document: dict[str, Any]) -> Path:
        """Durably persist a telemetry sidecar next to ``key``.

        Same atomicity and strict serialisation as :meth:`put`.  The
        sidecar may be written before, after, or without the cell
        document — readers must treat it as best-effort metadata.
        """
        path = self._sidecar_file(key)
        encoded = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        temporary = f"{self._prefix}{key[:2]}/.{key}.telemetry.{os.getpid()}.tmp"
        return _write_atomic(path, temporary, encoded + "\n")

    def get_sidecar(self, key: str) -> dict[str, Any] | None:
        """The telemetry sidecar for ``key``, or None.

        Sidecars are advisory: absent, unparseable, or non-object
        sidecars all read as None (no quarantine, no exception) — a
        damaged sidecar must never make a cell look broken.
        """
        path = self._sidecar_file(key)
        try:
            raw = _read_text(path)
        except UnicodeDecodeError:
            return None
        if raw is None:
            return None
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            return None
        return document if isinstance(document, dict) else None

    def sidecar_keys(self) -> Iterator[str]:
        """Every key that has a telemetry sidecar, in sorted order."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"??/*{SIDECAR_SUFFIX}")):
            key = path.name[: -len(SIDECAR_SUFFIX)]
            if is_cell_key(key) and key[:2] == path.parent.name:
                yield key

    def keys(self) -> Iterator[str]:
        """Every stored key, in sorted (deterministic) order.

        Stray entries that are not content-addressed documents (wrong
        stem shape, or a file parked in the wrong shard) are skipped,
        so a reader iterating the store never trips over a note
        someone dropped next to the results.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            key = path.stem
            if is_cell_key(key) and key[:2] == path.parent.name:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.has(key)


def _entries(directory: str | Path) -> list[os.DirEntry[str]]:
    """What ``directory`` holds; nothing if it is not a directory."""
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except (FileNotFoundError, NotADirectoryError):
        return []


def _read_text(path: str) -> str | None:
    """The file's text, or None if it does not exist.

    May raise :class:`UnicodeDecodeError`; :meth:`ResultStore.get`
    quarantines that the same way it does a parse failure.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _write_atomic(path: str, temporary: str, text: str) -> Path:
    try:
        handle = open(temporary, "w", encoding="utf-8")
    except FileNotFoundError:
        # First file of its shard: the directory is made when it is
        # found missing, not probed for before every write.
        os.makedirs(os.path.dirname(temporary), exist_ok=True)
        handle = open(temporary, "w", encoding="utf-8")
    with handle:
        handle.write(text)
    os.replace(temporary, path)
    return Path(path)
