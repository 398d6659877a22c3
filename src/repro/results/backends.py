"""Storage backends behind :class:`ResultStore` and :class:`ClaimStore`.

The result/claim layer splits in two:

- **Policy** lives in the facades (:mod:`repro.results.store`,
  :mod:`repro.results.claims`): canonical JSON encoding, corruption
  quarantine decisions, lease/staleness arithmetic, runner identity.
- **Mechanism** lives here: where bytes/rows go, and which primitive
  makes each operation atomic.

Two backends implement the mechanism:

:class:`JsonStoreBackend`
    The original sharded-file layout — one ``<key[:2]>/<key>.json``
    file per cell, atomic temp-file + ``os.replace`` writes, claims as
    ``claims/<key>.claim`` files whose exclusivity comes from
    ``O_CREAT | O_EXCL``.  Human-diffable, greppable, and safe on any
    shared directory; one inode and a create/write/rename syscall trio
    per cell.

:class:`SqliteStoreBackend`
    One WAL-mode SQLite database (``<root>/store.sqlite``) per store.
    Documents, sidecars, and quarantined bodies are rows; a *batch* of
    puts commits in a single transaction (one WAL append per batch
    instead of per-cell file churn), which is what keeps 10⁴–10⁶-cell
    grids off the inode wall.  Claims are rows in the same database:
    ``BEGIN IMMEDIATE`` plays the role of ``O_CREAT | O_EXCL`` (the
    write lock admits exactly one runner to the claim check), and the
    one-thief-wins steal is a guarded ``UPDATE`` under that same lock.

Both backends speak *raw document text* — the exact bytes the JSON
backend would put in a file, trailing newline included — so migrating
a store across backends (``repro grid migrate``) is byte-identical by
construction: what ``doc_get_raw`` returns from one backend is what
``doc_put_raw`` stores in the other.

Pick a backend with :func:`resolve_backend`; ``"auto"`` detects an
existing SQLite store by the presence of its database file and falls
back to the JSON layout otherwise, so existing stores keep working
with no flag at all.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BACKEND_NAMES",
    "ClaimRecord",
    "JsonStoreBackend",
    "SIDECAR_SUFFIX",
    "SQLITE_DB_NAME",
    "StoreBackend",
    "SqliteStoreBackend",
    "check_key",
    "is_cell_key",
    "resolve_backend",
]

#: Filename suffix of telemetry sidecars: ``<key>.telemetry.json``.
SIDECAR_SUFFIX = ".telemetry.json"

#: The database file whose presence marks a store as SQLite-backed.
SQLITE_DB_NAME = "store.sqlite"

#: Names accepted by :func:`resolve_backend` (besides ``"auto"``).
BACKEND_NAMES = ("json", "sqlite")


#: What a key may look like: lower-case ASCII hex, eight digits or more.
#: It is always ``fullmatch``ed, so a trailing newline does not pass.
_KEY = re.compile(r"[0-9a-f]{8,}")


def is_cell_key(name: str) -> bool:
    """Whether ``name`` is a full content-addressed cell key (64 hex)."""
    return len(name) == 64 and _KEY.fullmatch(name) is not None


def check_key(key: str) -> None:
    """Reject strings that are not plausible content-addressed keys.

    The guard between a key and a filesystem path.  A backend that
    builds paths from keys runs it where it builds them and says so
    (:attr:`StoreBackend.guards_keys`); for the others the facades
    (:class:`ResultStore`, :class:`ClaimStore`) run it before the
    backend sees the key.  Either way a public call pays it once per
    path, not once per layer.
    """
    if _KEY.fullmatch(key) is None:
        raise ValueError(f"malformed result-store key: {key!r}")


@dataclass(frozen=True)
class ClaimRecord:
    """One stored claim, as the backend sees it.

    ``fields`` carries the claim's typed payload (``runner_id``,
    ``claimed_at``, ``heartbeat_at``, ``lease_ttl_s``, ``workers``) or
    None when the stored form could not be decoded — a claim file
    observed mid-write.  ``mtime`` is the storage-level timestamp the
    policy layer falls back to for judging a torn claim's staleness.
    """

    fields: dict[str, Any] | None
    mtime: float


class StoreBackend:
    """Mechanism interface shared by all result/claim storage backends.

    Document and sidecar bodies cross this interface as *raw text* —
    the exact serialized form, trailing newline included — so the
    facades own encoding/decoding and any two backends exchange
    byte-identical documents.  Methods that return a :class:`Path`
    point at whatever on-disk artifact holds the data (a document file
    for JSON, the database file for SQLite).
    """

    #: Short name used by the CLI (``--backend``) and diagnostics.
    name: str = "?"

    #: Whether every key-taking method rejects a malformed key itself
    #: (:func:`check_key`).  A backend that turns keys into filesystem
    #: paths must; the facades check on behalf of one that does not.
    guards_keys: bool = False

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- documents -----------------------------------------------------

    def doc_has(self, key: str) -> bool:
        raise NotImplementedError

    def doc_get_raw(self, key: str) -> str | None:
        """The stored document text for ``key``, or None if absent.

        May raise :class:`UnicodeDecodeError` when the stored bytes do
        not decode — the facade quarantines that the same way it does
        a parse failure.
        """
        raise NotImplementedError

    def doc_put_raw(self, key: str, text: str) -> Path:
        raise NotImplementedError

    def doc_delete(self, key: str) -> bool:
        raise NotImplementedError

    def doc_quarantine(self, key: str) -> Path | str | None:
        """Move the document for ``key`` out of the store's namespace.

        Returns where it went (a path or an opaque token), or None if
        it vanished first.
        """
        raise NotImplementedError

    def doc_keys(self) -> Iterator[str]:
        raise NotImplementedError

    def doc_path(self, key: str) -> Path:
        raise NotImplementedError(
            f"the {self.name!r} backend does not store documents as "
            "standalone files"
        )

    # -- sidecars ------------------------------------------------------

    def sidecar_get_raw(self, key: str) -> str | None:
        raise NotImplementedError

    def sidecar_put_raw(self, key: str, text: str) -> Path:
        raise NotImplementedError

    def sidecar_keys(self) -> Iterator[str]:
        raise NotImplementedError

    def sidecar_path(self, key: str) -> Path:
        raise NotImplementedError(
            f"the {self.name!r} backend does not store sidecars as "
            "standalone files"
        )

    # -- housekeeping --------------------------------------------------

    def clean_tmp(self, max_age_s: float, clock: Callable[[], float]) -> int:
        """Sweep writer litter; backends without litter return 0."""
        raise NotImplementedError

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group the puts inside the ``with`` into one durable commit.

        A throughput contract, not a transaction: writes buffered by a
        backend are flushed when the block exits — **even if the body
        raised** — matching the JSON backend, where every put inside
        the block is already durable the moment it returns.  Callers
        needing claim-release-after-commit semantics release *after*
        this context exits.
        """
        yield

    # -- claims --------------------------------------------------------

    def claim_acquire(
        self,
        key: str,
        runner_id: str,
        fields_factory: Callable[[], dict[str, Any]],
        is_stale: Callable[[ClaimRecord], bool],
    ) -> bool:
        """Atomically take the claim on ``key``; True iff acquired.

        ``fields_factory`` builds a fresh payload (re-stamping the
        clock) for each create attempt; ``is_stale`` is the policy
        callback deciding whether an existing claim may be stolen.
        """
        raise NotImplementedError

    def claim_load(self, key: str) -> ClaimRecord | None:
        raise NotImplementedError

    def claim_heartbeat(
        self, key: str, runner_id: str, fields: dict[str, Any]
    ) -> bool:
        """Re-stamp ``runner_id``'s claim on ``key``; False if lost."""
        raise NotImplementedError

    def claim_release(self, key: str, runner_id: str) -> bool:
        raise NotImplementedError

    def claim_list(self) -> Iterator[tuple[str, ClaimRecord]]:
        """Every current claim as ``(key, record)``, sorted by key."""
        raise NotImplementedError

    def claim_prune(
        self, is_settled: Callable[[str], bool], cutoff: float
    ) -> int:
        """Drop settled claims and stale litter older than ``cutoff``."""
        raise NotImplementedError

    def claim_path(self, key: str) -> Path:
        raise NotImplementedError(
            f"the {self.name!r} backend does not store claims as "
            "standalone files"
        )


class JsonStoreBackend(StoreBackend):
    """The original sharded-JSON file layout, unchanged on disk.

    Documents: ``<root>/<key[:2]>/<key>.json`` written atomically via
    a same-directory temp file + ``os.replace``.  Sidecars sit next to
    their document as ``<key>.telemetry.json``.  Claims are
    ``<root>/claims/<key>.claim`` files whose exclusivity is the
    filesystem's ``O_CREAT | O_EXCL``; stealing renames through a
    per-thief graveyard name so exactly one thief wins.  Stores
    written by earlier releases are read and written bit-for-bit
    identically — this class is the old code moved, not rewritten.
    """

    name = "json"
    guards_keys = True

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        # File names are built by string formatting under this prefix
        # (the root with its trailing separator): a pathlib join per
        # document costs more than the ``open`` it leads to.
        self._prefix = os.path.join(self.root, "")

    # -- documents -----------------------------------------------------

    def doc_path(self, key: str) -> Path:
        return Path(self._doc_file(key))

    def _doc_file(self, key: str) -> str:
        """The document's file name; every document method comes through
        here (or :meth:`doc_path`), so this is where the key is checked."""
        check_key(key)
        return f"{self._prefix}{key[:2]}/{key}.json"

    def doc_has(self, key: str) -> bool:
        return os.path.isfile(self._doc_file(key))

    def doc_get_raw(self, key: str) -> str | None:
        return self._read_text(self._doc_file(key))

    def doc_put_raw(self, key: str, text: str) -> Path:
        path = self._doc_file(key)
        temporary = f"{self._prefix}{key[:2]}/.{key}.{os.getpid()}.tmp"
        return self._write_atomic(path, temporary, text)

    def doc_delete(self, key: str) -> bool:
        try:
            self.doc_path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def doc_quarantine(self, key: str) -> Path | None:
        path = self.doc_path(key)
        destination = path.with_name(f"{key}.json.corrupt")
        try:
            os.replace(path, destination)
        except FileNotFoundError:
            return None
        return destination

    def doc_keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            key = path.stem
            if is_cell_key(key) and key[:2] == path.parent.name:
                yield key

    # -- sidecars ------------------------------------------------------

    def sidecar_path(self, key: str) -> Path:
        return Path(self._sidecar_file(key))

    def _sidecar_file(self, key: str) -> str:
        """:meth:`_doc_file` for sidecars, key check included."""
        check_key(key)
        return f"{self._prefix}{key[:2]}/{key}{SIDECAR_SUFFIX}"

    def sidecar_get_raw(self, key: str) -> str | None:
        return self._read_text(self._sidecar_file(key))

    def sidecar_put_raw(self, key: str, text: str) -> Path:
        path = self._sidecar_file(key)
        temporary = f"{self._prefix}{key[:2]}/.{key}.telemetry.{os.getpid()}.tmp"
        return self._write_atomic(path, temporary, text)

    def sidecar_keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"??/*{SIDECAR_SUFFIX}")):
            key = path.name[: -len(SIDECAR_SUFFIX)]
            if is_cell_key(key) and key[:2] == path.parent.name:
                yield key

    # -- housekeeping --------------------------------------------------

    def clean_tmp(self, max_age_s: float, clock: Callable[[], float]) -> int:
        # Every ``<two characters>/.<anything>.tmp`` under the root.
        cutoff = clock() - max_age_s
        removed = 0
        for shard in self._entries(self.root):
            if len(shard.name) != 2:
                continue
            for entry in self._entries(shard.path):
                name = entry.name
                if len(name) > 4 and name.startswith(".") and name.endswith(".tmp"):
                    try:
                        if entry.stat().st_mtime <= cutoff:
                            os.unlink(entry.path)
                            removed += 1
                    except FileNotFoundError:
                        pass
        return removed

    @staticmethod
    def _entries(directory: str | Path) -> list[os.DirEntry[str]]:
        """What ``directory`` holds; nothing if it is not a directory."""
        try:
            with os.scandir(directory) as entries:
                return list(entries)
        except (FileNotFoundError, NotADirectoryError):
            return []

    @staticmethod
    def _read_text(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    @staticmethod
    def _write_atomic(path: str, temporary: str, text: str) -> Path:
        try:
            handle = open(temporary, "w", encoding="utf-8")
        except FileNotFoundError:
            # First document of its shard: the directory is made when
            # it is found missing, not probed for before every write.
            os.makedirs(os.path.dirname(temporary), exist_ok=True)
            handle = open(temporary, "w", encoding="utf-8")
        with handle:
            handle.write(text)
        os.replace(temporary, path)
        return Path(path)

    # -- claims --------------------------------------------------------

    @property
    def claims_directory(self) -> Path:
        return self.root / "claims"

    def claim_path(self, key: str) -> Path:
        check_key(key)
        return self.claims_directory / f"{key}.claim"

    def claim_acquire(
        self,
        key: str,
        runner_id: str,
        fields_factory: Callable[[], dict[str, Any]],
        is_stale: Callable[[ClaimRecord], bool],
    ) -> bool:
        path = self.claim_path(key)
        if self._claim_create(path, fields_factory):
            return True
        record = self.claim_load(key)
        if record is None:
            # Released between our create attempt and the read: one
            # more exclusive create, then give up to whoever won.
            return self._claim_create(path, fields_factory)
        if not is_stale(record):
            return False
        return self._claim_steal(path, runner_id, fields_factory)

    def claim_load(self, key: str) -> ClaimRecord | None:
        path = self.claim_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return None
        fields: dict[str, Any] | None
        try:
            decoded = json.loads(raw)
            fields = decoded if isinstance(decoded, dict) else None
        except json.JSONDecodeError:
            fields = None
        # Always capture the mtime: the policy layer falls back to it
        # whenever the payload cannot be decoded into a claim — torn
        # write, foreign format, or a dict with missing/bad fields.
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            if fields is None:
                return None
            mtime = 0.0
        return ClaimRecord(fields=fields, mtime=mtime)

    def claim_heartbeat(
        self, key: str, runner_id: str, fields: dict[str, Any]
    ) -> bool:
        path = self.claim_path(key)
        temporary = self.claims_directory / f".{key}.{runner_id}.hb.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(self._claim_payload(fields))
        try:
            os.replace(temporary, path)
        except FileNotFoundError:
            # The temp file was swept from under us (an over-eager
            # cleaner) — the claim itself still stands, so report the
            # heartbeat as failed rather than crash the batch.
            return False
        return True

    def claim_release(self, key: str, runner_id: str) -> bool:
        try:
            self.claim_path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def claim_list(self) -> Iterator[tuple[str, ClaimRecord]]:
        if not self.claims_directory.is_dir():
            return
        for path in sorted(self.claims_directory.glob("*.claim")):
            key = path.name[: -len(".claim")]
            if is_cell_key(key):
                record = self.claim_load(key)
                if record is not None:
                    yield key, record

    def claim_prune(
        self, is_settled: Callable[[str], bool], cutoff: float
    ) -> int:
        if not self.claims_directory.is_dir():
            return 0
        removed = 0
        for path in list(self.claims_directory.glob("*.claim.stale.*")) + list(
            self.claims_directory.glob(".*.tmp")
        ):
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        for path in list(self.claims_directory.glob("*.claim")):
            key = path.name[: -len(".claim")]
            if is_cell_key(key) and is_settled(key):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    @staticmethod
    def _claim_payload(fields: dict[str, Any]) -> str:
        # allow_nan=False is a no-op for the finite timestamps/TTLs a
        # claim holds — it backstops the strict-JSON contract (RPR006).
        return json.dumps(fields, sort_keys=True, allow_nan=False) + "\n"

    def _claim_create(
        self, path: Path, fields_factory: Callable[[], dict[str, Any]]
    ) -> bool:
        """One exclusive-create attempt; True iff we made the file."""
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            try:
                fd = os.open(path, flags, 0o644)
            except FileNotFoundError:
                # The store's first claim makes the directory.
                os.makedirs(path.parent, exist_ok=True)
                fd = os.open(path, flags, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(self._claim_payload(fields_factory()))
        return True

    def _claim_steal(
        self,
        path: Path,
        runner_id: str,
        fields_factory: Callable[[], dict[str, Any]],
    ) -> bool:
        """Reclaim a stale claim; True iff we now hold it.

        The rename moves the stale file to a name no other runner
        targets, so exactly one of any number of simultaneous thieves
        wins it; the winner then competes in a normal exclusive create
        (it may still lose that to a runner that arrived after the
        rename — fine, *someone* holds the cell exactly once).
        """
        grave = path.with_name(f"{path.name}.stale.{runner_id}")
        try:
            os.rename(path, grave)
        except FileNotFoundError:
            return False
        try:
            grave.unlink()
        except FileNotFoundError:
            pass
        return self._claim_create(path, fields_factory)


_SQLITE_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    key  TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sidecars (
    key  TEXT PRIMARY KEY,
    body TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key            TEXT NOT NULL,
    body           TEXT NOT NULL,
    quarantined_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    key          TEXT PRIMARY KEY,
    runner_id    TEXT NOT NULL,
    claimed_at   REAL NOT NULL,
    heartbeat_at REAL NOT NULL,
    lease_ttl_s  REAL NOT NULL,
    workers      INTEGER NOT NULL DEFAULT 1
);
"""

_CLAIM_COLUMNS = (
    "runner_id",
    "claimed_at",
    "heartbeat_at",
    "lease_ttl_s",
    "workers",
)


class SqliteStoreBackend(StoreBackend):
    """One WAL-mode SQLite database per store: ``<root>/store.sqlite``.

    Documents, sidecars, and quarantined bodies are rows keyed by cell
    key; the stored ``body`` is the exact text the JSON backend would
    write to a file, so cross-backend migration is byte-identical.
    :meth:`batch` buffers puts in memory and flushes them in a single
    ``BEGIN IMMEDIATE`` transaction — one fsync per committed batch
    instead of one per cell, which is the whole point of this backend.

    Claims are rows in the same database.  Exclusivity that the JSON
    layout gets from ``O_CREAT | O_EXCL`` comes from the database
    write lock: ``BEGIN IMMEDIATE`` admits exactly one connection to
    the claim check, so an absent row insert *is* the atomic claim,
    and the one-thief-wins steal of a stale lease is a guarded
    ``UPDATE`` under the same lock.  Rows are always well-formed, so
    the torn-claim mtime fallback of the file layout has no analogue
    here.

    Thread-safety: one connection guarded by an :class:`~threading.RLock`
    (the grid runner's heartbeat ticker thread shares the backend with
    the main thread).  Cross-process safety is SQLite's own locking
    with a 30 s busy timeout.  Worker processes forked by the grid
    pool inherit the connection object but never use it — only the
    parent commits results — so fork-time lock state is irrelevant.
    All :mod:`sqlite3` errors surface as :class:`OSError`, the same
    family a failed file write raises, so callers need one error
    vocabulary for both backends.
    """

    name = "sqlite"

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        self.db_path = self.root / SQLITE_DB_NAME
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._batch_depth = 0
        self._buffered_docs: dict[str, str] = {}
        self._buffered_sidecars: dict[str, str] = {}

    # -- connection management -----------------------------------------

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        """The store's connection; None for reads of an absent store."""
        with self._lock:
            if self._conn is not None:
                return self._conn
            if not create and not self.db_path.is_file():
                return None
            try:
                self.db_path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    str(self.db_path),
                    timeout=30.0,
                    isolation_level=None,  # autocommit; explicit BEGINs
                    check_same_thread=False,
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SQLITE_SCHEMA)
            except sqlite3.Error as error:
                raise OSError(
                    f"cannot open sqlite store {self.db_path}: {error}"
                ) from error
            self._conn = conn
            return conn

    @contextmanager
    def _txn(self, conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction, sqlite errors → OSError."""
        with self._lock:
            try:
                conn.execute("BEGIN IMMEDIATE")
            except sqlite3.Error as error:
                raise OSError(
                    f"sqlite store {self.db_path}: {error}"
                ) from error
            try:
                yield conn
            except sqlite3.Error as error:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise OSError(
                    f"sqlite store {self.db_path}: {error}"
                ) from error
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise
            else:
                try:
                    conn.execute("COMMIT")
                except sqlite3.Error as error:
                    raise OSError(
                        f"sqlite store {self.db_path}: {error}"
                    ) from error

    def _read(
        self, sql: str, parameters: tuple[Any, ...] = ()
    ) -> list[tuple[Any, ...]]:
        """Run one read query; empty result if the store does not exist."""
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return []
            try:
                return conn.execute(sql, parameters).fetchall()
            except sqlite3.Error as error:
                raise OSError(
                    f"sqlite store {self.db_path}: {error}"
                ) from error

    def _write_row(self, table: str, key: str, text: str) -> Path:
        with self._lock:
            conn = self._connect(create=True)
            with self._txn(conn):
                conn.execute(
                    f"INSERT OR REPLACE INTO {table}(key, body) VALUES (?, ?)",
                    (key, text),
                )
        return self.db_path

    # -- documents -----------------------------------------------------

    def doc_has(self, key: str) -> bool:
        with self._lock:
            if key in self._buffered_docs:
                return True
        rows = self._read("SELECT 1 FROM documents WHERE key = ?", (key,))
        return bool(rows)

    def doc_get_raw(self, key: str) -> str | None:
        with self._lock:
            buffered = self._buffered_docs.get(key)
            if buffered is not None:
                return buffered
        rows = self._read("SELECT body FROM documents WHERE key = ?", (key,))
        return rows[0][0] if rows else None

    def doc_put_raw(self, key: str, text: str) -> Path:
        with self._lock:
            if self._batch_depth > 0:
                self._buffered_docs[key] = text
                return self.db_path
        return self._write_row("documents", key, text)

    def doc_delete(self, key: str) -> bool:
        with self._lock:
            buffered = self._buffered_docs.pop(key, None) is not None
            conn = self._connect(create=False)
            if conn is None:
                return buffered
            with self._txn(conn):
                cursor = conn.execute(
                    "DELETE FROM documents WHERE key = ?", (key,)
                )
            return buffered or cursor.rowcount > 0

    def doc_quarantine(self, key: str) -> str | None:
        with self._lock:
            body = self._buffered_docs.pop(key, None)
            conn = self._connect(create=False)
            if conn is None:
                return None
            with self._txn(conn):
                if body is None:
                    rows = conn.execute(
                        "SELECT body FROM documents WHERE key = ?", (key,)
                    ).fetchall()
                    if not rows:
                        return None
                    body = rows[0][0]
                    conn.execute("DELETE FROM documents WHERE key = ?", (key,))
                conn.execute(
                    "INSERT INTO quarantine(key, body, quarantined_at) "
                    "VALUES (?, ?, ?)",
                    (key, body, time.time()),
                )
        return f"{SQLITE_DB_NAME}::quarantine::{key}"

    def doc_keys(self) -> Iterator[str]:
        stored = [
            row[0]
            for row in self._read("SELECT key FROM documents ORDER BY key")
        ]
        with self._lock:
            buffered = list(self._buffered_docs)
        for key in sorted(set(stored) | set(buffered)):
            if is_cell_key(key):
                yield key

    # -- sidecars ------------------------------------------------------

    def sidecar_get_raw(self, key: str) -> str | None:
        with self._lock:
            buffered = self._buffered_sidecars.get(key)
            if buffered is not None:
                return buffered
        rows = self._read("SELECT body FROM sidecars WHERE key = ?", (key,))
        return rows[0][0] if rows else None

    def sidecar_put_raw(self, key: str, text: str) -> Path:
        with self._lock:
            if self._batch_depth > 0:
                self._buffered_sidecars[key] = text
                return self.db_path
        return self._write_row("sidecars", key, text)

    def sidecar_keys(self) -> Iterator[str]:
        stored = [
            row[0]
            for row in self._read("SELECT key FROM sidecars ORDER BY key")
        ]
        with self._lock:
            buffered = list(self._buffered_sidecars)
        for key in sorted(set(stored) | set(buffered)):
            if is_cell_key(key):
                yield key

    # -- housekeeping --------------------------------------------------

    def clean_tmp(self, max_age_s: float, clock: Callable[[], float]) -> int:
        return 0  # no temp files: writes are rows, litter-free

    @contextmanager
    def batch(self) -> Iterator[None]:
        with self._lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self._flush()

    def _flush(self) -> None:
        """Commit every buffered put in one transaction (one fsync)."""
        with self._lock:
            if not self._buffered_docs and not self._buffered_sidecars:
                return
            conn = self._connect(create=True)
            with self._txn(conn):
                conn.executemany(
                    "INSERT OR REPLACE INTO documents(key, body) "
                    "VALUES (?, ?)",
                    list(self._buffered_docs.items()),
                )
                conn.executemany(
                    "INSERT OR REPLACE INTO sidecars(key, body) "
                    "VALUES (?, ?)",
                    list(self._buffered_sidecars.items()),
                )
            self._buffered_docs.clear()
            self._buffered_sidecars.clear()

    # -- claims --------------------------------------------------------

    @staticmethod
    def _record(row: tuple[Any, ...]) -> ClaimRecord:
        fields = dict(zip(_CLAIM_COLUMNS, row))
        return ClaimRecord(fields=fields, mtime=float(fields["heartbeat_at"]))

    @staticmethod
    def _field_values(fields: dict[str, Any]) -> tuple[Any, ...]:
        return tuple(fields[column] for column in _CLAIM_COLUMNS)

    def claim_acquire(
        self,
        key: str,
        runner_id: str,
        fields_factory: Callable[[], dict[str, Any]],
        is_stale: Callable[[ClaimRecord], bool],
    ) -> bool:
        with self._lock:
            conn = self._connect(create=True)
            with self._txn(conn):
                rows = conn.execute(
                    "SELECT runner_id, claimed_at, heartbeat_at, "
                    "lease_ttl_s, workers FROM claims WHERE key = ?",
                    (key,),
                ).fetchall()
                if not rows:
                    # The write lock held by this transaction is the
                    # O_CREAT|O_EXCL of this backend: nobody else can
                    # insert between our check and our insert.
                    conn.execute(
                        "INSERT INTO claims(key, runner_id, claimed_at, "
                        "heartbeat_at, lease_ttl_s, workers) "
                        "VALUES (?, ?, ?, ?, ?, ?)",
                        (key,) + self._field_values(fields_factory()),
                    )
                    return True
                if not is_stale(self._record(rows[0])):
                    return False
                # Stale lease: the guarded UPDATE under the same write
                # lock is the one-thief-wins steal.
                conn.execute(
                    "UPDATE claims SET runner_id = ?, claimed_at = ?, "
                    "heartbeat_at = ?, lease_ttl_s = ?, workers = ? "
                    "WHERE key = ?",
                    self._field_values(fields_factory()) + (key,),
                )
                return True

    def claim_load(self, key: str) -> ClaimRecord | None:
        rows = self._read(
            "SELECT runner_id, claimed_at, heartbeat_at, lease_ttl_s, "
            "workers FROM claims WHERE key = ?",
            (key,),
        )
        return self._record(rows[0]) if rows else None

    def claim_heartbeat(
        self, key: str, runner_id: str, fields: dict[str, Any]
    ) -> bool:
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return False
            with self._txn(conn):
                cursor = conn.execute(
                    "UPDATE claims SET claimed_at = ?, heartbeat_at = ?, "
                    "lease_ttl_s = ?, workers = ? "
                    "WHERE key = ? AND runner_id = ?",
                    (
                        fields["claimed_at"],
                        fields["heartbeat_at"],
                        fields["lease_ttl_s"],
                        fields["workers"],
                        key,
                        runner_id,
                    ),
                )
            return cursor.rowcount == 1

    def claim_release(self, key: str, runner_id: str) -> bool:
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return False
            with self._txn(conn):
                cursor = conn.execute(
                    "DELETE FROM claims WHERE key = ? AND runner_id = ?",
                    (key, runner_id),
                )
            return cursor.rowcount == 1

    def claim_list(self) -> Iterator[tuple[str, ClaimRecord]]:
        rows = self._read(
            "SELECT key, runner_id, claimed_at, heartbeat_at, lease_ttl_s, "
            "workers FROM claims ORDER BY key"
        )
        for row in rows:
            if is_cell_key(row[0]):
                yield row[0], self._record(row[1:])

    def claim_prune(
        self, is_settled: Callable[[str], bool], cutoff: float
    ) -> int:
        keys = [
            row[0] for row in self._read("SELECT key FROM claims ORDER BY key")
        ]
        settled = [k for k in keys if is_cell_key(k) and is_settled(k)]
        if not settled:
            return 0
        with self._lock:
            conn = self._connect(create=False)
            if conn is None:
                return 0
            removed = 0
            with self._txn(conn):
                for key in settled:
                    cursor = conn.execute(
                        "DELETE FROM claims WHERE key = ?", (key,)
                    )
                    removed += cursor.rowcount
            return removed


def resolve_backend(
    root: str | Path,
    backend: str | StoreBackend | None = "auto",
) -> StoreBackend:
    """Turn a backend choice into a backend instance for ``root``.

    Accepts an existing :class:`StoreBackend` (passed through so a
    :class:`ClaimStore` can share its :class:`ResultStore`'s
    connection), a name from :data:`BACKEND_NAMES`, or ``"auto"`` /
    None — which detects an existing SQLite store by the presence of
    its database file and otherwise chooses the JSON layout, so stores
    written by earlier releases need no flag.
    """
    if isinstance(backend, StoreBackend):
        return backend
    name = (backend or "auto").lower()
    if name == "auto":
        name = "sqlite" if (Path(root) / SQLITE_DB_NAME).is_file() else "json"
    if name == "json":
        return JsonStoreBackend(root)
    if name == "sqlite":
        return SqliteStoreBackend(root)
    raise ValueError(
        f"unknown result-store backend {backend!r} "
        f"(expected one of: auto, {', '.join(BACKEND_NAMES)})"
    )
