"""Lease-based work claims over a shared result store.

N independent ``GridRunner`` processes pointed at one store partition
a grid dynamically: before executing a cell, a runner *claims* its
key; only the claim holder simulates the cell, commits the result
document, and releases the claim.  Everyone else either finds the
cell already stored (cache hit) or already claimed (skip, revisit
later).

Claim lifecycle::

    pending ── try_claim ──▶ claimed ── commit+release ──▶ stored
                   │             │
                   │             └── crash / silence > lease TTL
                   │                        │
                   └──◀── stale, reclaimed ─┘

This class owns the *policy* — runner identity, lease TTLs, staleness
arithmetic, who may steal what — while the storage *mechanism* comes
from the same backend as the result store
(:mod:`repro.results.backends`):

- the **json** backend keeps one file ``<root>/claims/<key>.claim``
  per claim.  Creation uses ``O_CREAT | O_EXCL``, so exactly one
  runner wins a pending cell; stealing a stale claim renames it to a
  per-thief graveyard name first (``os.rename`` succeeds for exactly
  one thief) and re-runs the exclusive create.  Pure filesystem — it
  works on any shared directory where ``O_CREAT | O_EXCL`` is atomic.
- the **sqlite** backend keeps claims as rows in the store database;
  ``BEGIN IMMEDIATE`` plays the role of ``O_CREAT | O_EXCL`` and the
  one-thief-wins steal is a guarded ``UPDATE`` under the same write
  lock.

The holder re-stamps its heartbeat as it finishes other cells; a
claim whose heartbeat is older than its lease TTL is *stale* — its
runner is presumed dead — and any runner may reclaim it.

Two hazards are deliberately tolerated rather than prevented:

- A claim observed mid-write (file created but not yet filled) parses
  as unreadable; it is treated as live until its *mtime* exceeds the
  TTL, so a torn read never causes an early steal.  (Row-backed
  claims are always well-formed; this path is json-only.)
- A runner that outlives its own lease (suspended longer than the TTL
  between heartbeats) may race its thief.  Both then execute the same
  cell, but cells are deterministic and content-addressed, so both
  commit byte-identical documents — correctness survives, only the
  "zero duplicate executions" economy is lost.  Size the TTL well
  above the slowest cell to keep that path theoretical.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .backends import ClaimRecord, StoreBackend, check_key, resolve_backend

__all__ = ["Claim", "ClaimStore", "DEFAULT_LEASE_TTL_S", "default_runner_id"]

#: Default lease TTL.  A claim silent for longer than this is presumed
#: orphaned and may be reclaimed; keep it far above the slowest cell.
DEFAULT_LEASE_TTL_S = 300.0

#: Characters allowed in a runner id (it becomes part of file names).
_RUNNER_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def default_runner_id() -> str:
    """A runner id unique enough for one shared store: host, pid, nonce.

    The nonce guards against pid reuse across container restarts on a
    store that outlives the machines writing to it.
    """
    host = socket.gethostname().split(".")[0] or "host"
    safe_host = "".join(c if c in _RUNNER_ID_CHARS else "-" for c in host)
    return f"{safe_host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class Claim:
    """One stored claim, decoded: who holds a cell and how fresh they are."""

    key: str
    runner_id: str
    claimed_at: float
    heartbeat_at: float
    lease_ttl_s: float
    #: How many worker processes the holder fans its cells across
    #: (1 for claims written before the field existed).
    workers: int = 1
    #: False when the stored claim could not be parsed (e.g. observed
    #: mid-write); timestamps then come from the file's mtime.
    readable: bool = True

    def age_s(self, now: float) -> float:
        """Seconds since the claim was taken."""
        return max(0.0, now - self.claimed_at)

    def silence_s(self, now: float) -> float:
        """Seconds since the holder last heartbeat."""
        return max(0.0, now - self.heartbeat_at)

    def is_stale(self, now: float) -> bool:
        """Whether the holder has been silent past its lease TTL."""
        return self.silence_s(now) > self.lease_ttl_s


class ClaimStore:
    """Claims for one result store.

    Parameters
    ----------
    root:
        The *result store* root; file-backed claims live under
        ``<root>/claims``, row-backed ones in the store database.
    runner_id:
        This process's identity in claims (default: host-pid-nonce).
    lease_ttl_s:
        TTL stamped into claims this runner takes.  Staleness of a
        *foreign* claim is judged by the TTL recorded in that claim,
        so runners with different settings coexist.
    workers:
        Worker-process count stamped into claims this runner takes,
        so ``grid status`` can show how much capacity each runner is
        throwing at its cells.
    clock:
        Time source (injectable so tests can age leases instantly).
    backend:
        Storage mechanism: a name, ``"auto"`` (detects an existing
        SQLite store), or — the common case inside ``GridRunner`` —
        the :class:`ResultStore`'s own backend instance, so claims
        and results share one connection.
    """

    def __init__(
        self,
        root: str | Path,
        runner_id: str | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        workers: int = 1,
        clock: Callable[[], float] = time.time,
        backend: str | StoreBackend | None = "auto",
    ) -> None:
        if lease_ttl_s < 0:
            raise ValueError(f"lease_ttl_s must be >= 0, got {lease_ttl_s}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        self.backend = resolve_backend(self.root, backend)
        self.runner_id = runner_id if runner_id is not None else default_runner_id()
        if not self.runner_id or not set(self.runner_id) <= _RUNNER_ID_CHARS:
            raise ValueError(
                f"runner id {self.runner_id!r} must be non-empty and use only "
                "letters, digits, '.', '_', '-'"
            )
        self.lease_ttl_s = float(lease_ttl_s)
        self.workers = int(workers)
        self.clock = clock

    @property
    def directory(self) -> Path:
        """Where file-backed claims live (json backend only)."""
        return self.root / "claims"

    def path_for(self, key: str) -> Path:
        """The claim file for ``key`` (file backends only)."""
        return self.backend.claim_path(key)

    # -- taking and keeping a claim ------------------------------------

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key``; True iff this runner now holds it.

        A live foreign claim loses the race (returns False); a stale
        one is reclaimed.  Never blocks.
        """
        self._check_key(key)
        return self.backend.claim_acquire(
            key,
            self.runner_id,
            self._fresh_fields,
            lambda record: self._decode(key, record).is_stale(self.clock()),
        )

    def heartbeat(self, key: str) -> bool:
        """Re-stamp our claim on ``key``; False if the claim was lost.

        Losing a claim (stolen after going stale, or released by a
        bug) means another runner may be executing the cell — the
        caller should finish anyway (results are deterministic) but
        must not release the thief's claim.
        """
        self._check_key(key)
        claim = self._load(key)
        if claim is None or claim.runner_id != self.runner_id:
            return False
        return self.backend.claim_heartbeat(
            key, self.runner_id, self._fields(claimed_at=claim.claimed_at)
        )

    def release(self, key: str) -> bool:
        """Drop our claim on ``key``; False if we did not hold it."""
        self._check_key(key)
        claim = self._load(key)
        if claim is None or claim.runner_id != self.runner_id:
            return False
        return self.backend.claim_release(key, self.runner_id)

    # -- observing claims ----------------------------------------------

    def get(self, key: str) -> Claim | None:
        """The current claim on ``key``, or None if unclaimed."""
        self._check_key(key)
        return self._load(key)

    def claims(self) -> Iterator[Claim]:
        """Every current claim, sorted by key."""
        for key, record in self.backend.claim_list():
            yield self._decode(key, record)

    def prune(self, is_settled: Callable[[str], bool]) -> int:
        """Crash recovery: drop claims whose cell no longer needs one.

        Removes claims for keys ``is_settled`` confirms (their result
        was committed before the holder died), plus — on the json
        backend — graveyard and heartbeat temp files orphaned by a
        crash mid-steal or mid-heartbeat, but only litter older than
        this store's lease TTL, so a runner joining mid-sweep never
        yanks a live runner's in-flight heartbeat file.  Returns the
        number of entries removed.  Stale claims on *unsettled* cells
        are left for :meth:`try_claim`'s reclaim path, which
        re-executes them exactly once.
        """
        cutoff = self.clock() - self.lease_ttl_s
        return self.backend.claim_prune(is_settled, cutoff)

    # -- internals -----------------------------------------------------

    def _check_key(self, key: str) -> None:
        # As in ``ResultStore``: the backend that builds a path from
        # the key checks it there, the facade checks for the others.
        if not self.backend.guards_keys:
            check_key(key)

    def _load(self, key: str) -> Claim | None:
        """:meth:`get` for a key the calling method has already checked."""
        record = self.backend.claim_load(key)
        if record is None:
            return None
        return self._decode(key, record)

    def _fields(self, claimed_at: float) -> dict[str, Any]:
        return {
            "runner_id": self.runner_id,
            "claimed_at": claimed_at,
            "heartbeat_at": self.clock(),
            "lease_ttl_s": self.lease_ttl_s,
            "workers": self.workers,
        }

    def _fresh_fields(self) -> dict[str, Any]:
        now = self.clock()
        return {
            "runner_id": self.runner_id,
            "claimed_at": now,
            "heartbeat_at": now,
            "lease_ttl_s": self.lease_ttl_s,
            "workers": self.workers,
        }

    def _decode(self, key: str, record: ClaimRecord) -> Claim:
        """Turn one stored record into a :class:`Claim`.

        A record whose payload is missing or malformed — a claim file
        observed mid-write, or a foreign format — is attributed to
        nobody and judged by its storage mtime, so a torn read never
        causes an early steal.
        """
        if record.fields is not None:
            try:
                return Claim(
                    key=key,
                    runner_id=str(record.fields["runner_id"]),
                    claimed_at=float(record.fields["claimed_at"]),
                    heartbeat_at=float(record.fields["heartbeat_at"]),
                    lease_ttl_s=float(record.fields["lease_ttl_s"]),
                    workers=int(record.fields.get("workers", 1)),
                )
            except (KeyError, TypeError, ValueError):
                pass
        return Claim(
            key=key,
            runner_id="<unreadable>",
            claimed_at=record.mtime,
            heartbeat_at=record.mtime,
            lease_ttl_s=self.lease_ttl_s,
            readable=False,
        )
