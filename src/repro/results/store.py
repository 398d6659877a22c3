"""Content-addressed store for completed experiment cells.

One completed grid cell = one JSON document, named by the cell's
content-addressed key (:mod:`repro.results.keys`).  *Where* documents
live is a backend decision (:mod:`repro.results.backends`):

- the **json** backend keeps the original sharded-file layout —
  ``<root>/<key[:2]>/<key>.json``, atomic temp-file + ``os.replace``
  writes, diffable, safe to delete individually;
- the **sqlite** backend keeps one WAL-mode database per store with
  documents as rows and one fsync per committed *batch*, which is
  what million-cell grids need.

This class owns the *policy* either way: strict canonical JSON
encoding (``allow_nan=False``, sorted keys), and defensiveness about
damage it did not cause.  A document that no longer parses (disk
corruption, a partial copy, a stray editor) is *quarantined* — moved
out of the store's namespace where no listing sees it — and reported
via :class:`CorruptResultError` instead of aborting whoever was
reading; the cell simply re-runs.  :meth:`clean_tmp` sweeps temp files
orphaned by writers that died mid-``put`` (a no-op for backends
without litter).  Concurrent runners coordinate through
:mod:`repro.results.claims`, which shares this store's backend and is
invisible to every reader here.

Interrupted writes never leave a truncated document a resumed run
would mistake for a completed cell: the json backend renames complete
temp files into place, the sqlite backend commits complete rows — a
half-written cell simply does not exist.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from .backends import (
    SIDECAR_SUFFIX,
    StoreBackend,
    check_key,
    is_cell_key,
    resolve_backend,
)

__all__ = ["CorruptResultError", "ResultStore", "check_key", "is_cell_key"]


class CorruptResultError(RuntimeError):
    """A stored document failed to parse and has been quarantined.

    The offending document is moved out of the store's namespace
    before this is raised, so retrying the read reports the cell as
    absent — callers recover by re-executing the cell, not by
    crashing.  ``quarantined_to`` is where it went: a path for
    file-backed stores, an opaque token for row-backed ones, or None
    if the document vanished first.
    """

    def __init__(
        self,
        key: str,
        quarantined_to: Path | str | None,
        reason: str,
    ):
        self.key = key
        self.quarantined_to = quarantined_to
        self.reason = reason
        where = (
            f"quarantined to {getattr(quarantined_to, 'name', quarantined_to)}"
            if quarantined_to is not None
            else "already removed"
        )
        super().__init__(
            f"corrupt result document for key {key[:12]}… ({reason}); {where}"
        )


class ResultStore:
    """A store of content-addressed result documents.

    ``backend`` picks the storage mechanism: a name (``"json"``,
    ``"sqlite"``), an existing :class:`StoreBackend` instance, or
    ``"auto"`` (default) which detects an existing SQLite store by its
    database file and otherwise uses the original JSON file layout —
    so every pre-existing store keeps working unchanged.
    """

    #: Filename suffix of telemetry sidecars: ``<key>.telemetry.json``.
    SIDECAR_SUFFIX = SIDECAR_SUFFIX

    def __init__(
        self,
        root: str | Path,
        backend: str | StoreBackend | None = "auto",
    ) -> None:
        self.root = Path(root)
        self.backend = resolve_backend(self.root, backend)

    @property
    def backend_name(self) -> str:
        """Short name of the active backend (``"json"``/``"sqlite"``)."""
        return self.backend.name

    def path_for(self, key: str) -> Path:
        """Where the document for ``key`` lives (whether or not it exists).

        Only meaningful for file-backed stores; row-backed backends
        raise :class:`NotImplementedError`.
        """
        return self.backend.doc_path(key)

    def has(self, key: str) -> bool:
        """Whether a completed document is stored under ``key``."""
        self._check_key(key)
        return self.backend.doc_has(key)

    def get(self, key: str) -> dict[str, Any]:
        """Load the document stored under ``key``.

        Raises :class:`KeyError` if absent.  A document that exists
        but does not parse as a JSON object is quarantined and
        reported as :class:`CorruptResultError` — the store heals
        itself instead of failing every future read the same way.
        """
        self._check_key(key)
        try:
            raw = self.backend.doc_get_raw(key)
        except UnicodeDecodeError as error:
            raise CorruptResultError(
                key, self.quarantine(key), str(error)
            ) from None
        if raw is None:
            raise KeyError(f"no result stored under key {key!r}")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as error:
            raise CorruptResultError(
                key, self.quarantine(key), str(error)
            ) from None
        if not isinstance(document, dict):
            raise CorruptResultError(
                key,
                self.quarantine(key),
                f"expected a JSON object, got {type(document).__name__}",
            )
        return document

    def get_raw(self, key: str) -> str:
        """The stored document text for ``key``, exactly as persisted.

        The raw form is backend-independent (the json backend's file
        content, byte for byte), which is what makes cross-backend
        migration byte-identical.  Raises :class:`KeyError` if absent.
        """
        self._check_key(key)
        raw = self.backend.doc_get_raw(key)
        if raw is None:
            raise KeyError(f"no result stored under key {key!r}")
        return raw

    def quarantine(self, key: str) -> Path | str | None:
        """Move the document under ``key`` out of the store's namespace.

        Returns where it went (``<key>.json.corrupt`` for the json
        backend, a quarantine-table token for sqlite), or None if the
        document vanished first — e.g. a concurrent reader quarantined
        it already.
        """
        self._check_key(key)
        return self.backend.doc_quarantine(key)

    def clean_tmp(
        self,
        max_age_s: float = 3600.0,
        clock: Callable[[], float] = time.time,
    ) -> int:
        """Remove temp files orphaned by writers that died mid-``put``.

        Only files older than ``max_age_s`` go (a live writer's temp
        file is seconds old at most); returns how many were removed.
        Backends without writer litter return 0.
        """
        return self.backend.clean_tmp(max_age_s, clock)

    def put(self, key: str, document: dict[str, Any]) -> Path:
        """Durably persist ``document`` under ``key``.

        The document is serialised first — strictly
        (``allow_nan=False``), so a NaN/Infinity that slipped past the
        producer raises here instead of writing JSON no strict parser
        can read back — then committed atomically, so concurrent
        readers (and a crash mid-write) only ever observe complete
        documents and an encoding error leaves no litter.  Returns the
        on-disk artifact holding the document (its file, or the store
        database).
        """
        self._check_key(key)
        encoded = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        return self.backend.doc_put_raw(key, encoded + "\n")

    def put_raw(self, key: str, text: str) -> Path:
        """Persist pre-serialised document text verbatim (migration)."""
        self._check_key(key)
        return self.backend.doc_put_raw(key, text)

    def delete(self, key: str) -> bool:
        """Remove the document under ``key``; False if it was absent."""
        self._check_key(key)
        return self.backend.doc_delete(key)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group the puts inside the ``with`` into one durable commit.

        On the sqlite backend this is the difference between one fsync
        per cell and one per batch; on the json backend every put is
        already durable when it returns and this is a no-op.  Writes
        are flushed when the block exits even if the body raised —
        completed work is never rolled back — so code holding claims
        must release them *after* this context exits.
        """
        with self.backend.batch():
            yield

    # -- telemetry sidecars ------------------------------------------------
    #
    # A sidecar is advisory operational metadata (wall-clock phases,
    # throughput) stored *next to* a cell document.  Its identity is
    # separate from the cell key namespace, so :meth:`keys` never
    # lists it, content-addressed keys never cover it, and resume
    # semantics ignore it entirely.

    def sidecar_path_for(self, key: str) -> Path:
        """Where the telemetry sidecar for ``key`` lives (file backends)."""
        return self.backend.sidecar_path(key)

    def put_sidecar(self, key: str, document: dict[str, Any]) -> Path:
        """Durably persist a telemetry sidecar next to ``key``.

        Same atomicity and strict serialisation as :meth:`put`.  The
        sidecar may be written before, after, or without the cell
        document — readers must treat it as best-effort metadata.
        """
        self._check_key(key)
        encoded = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        return self.backend.sidecar_put_raw(key, encoded + "\n")

    def get_sidecar(self, key: str) -> dict[str, Any] | None:
        """The telemetry sidecar for ``key``, or None.

        Sidecars are advisory: absent, unparseable, or non-object
        sidecars all read as None (no quarantine, no exception) — a
        damaged sidecar must never make a cell look broken.
        """
        self._check_key(key)
        try:
            raw = self.backend.sidecar_get_raw(key)
        except UnicodeDecodeError:
            return None
        if raw is None:
            return None
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            return None
        return document if isinstance(document, dict) else None

    def get_sidecar_raw(self, key: str) -> str | None:
        """The stored sidecar text for ``key`` verbatim, or None."""
        self._check_key(key)
        try:
            return self.backend.sidecar_get_raw(key)
        except UnicodeDecodeError:
            return None

    def put_sidecar_raw(self, key: str, text: str) -> Path:
        """Persist pre-serialised sidecar text verbatim (migration)."""
        self._check_key(key)
        return self.backend.sidecar_put_raw(key, text)

    def sidecar_keys(self) -> Iterator[str]:
        """Every key that has a telemetry sidecar, in sorted order."""
        return self.backend.sidecar_keys()

    def keys(self) -> Iterator[str]:
        """Every stored key, in sorted (deterministic) order.

        Stray entries that are not content-addressed documents (wrong
        stem shape, or a file parked in the wrong shard) are skipped,
        so a reader iterating the store never trips over a note
        someone dropped next to the results.
        """
        return self.backend.doc_keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def _check_key(self, key: str) -> None:
        # Once per call: a backend that builds paths from keys checks
        # where it builds them, the facade checks for the others.
        if not self.backend.guards_keys:
            check_key(key)
