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

Claims live as one file per cell, ``<root>/claims/<key>.claim``,
holding the holder's id, its timestamps, lease TTL and worker count.
Creation uses ``O_CREAT | O_EXCL``, so exactly one runner wins a
pending cell; stealing a stale claim renames it to a per-thief
graveyard name first (``os.rename`` succeeds for exactly one thief) and
re-runs the exclusive create.  Pure filesystem — it works on any shared
directory where ``O_CREAT | O_EXCL`` is atomic.

While the cell executes, a background thread of the holder re-stamps
its heartbeat on a timer (every quarter of the lease TTL by default);
a claim whose heartbeat is older than its lease TTL is *stale* — its
runner is presumed dead — and any runner may reclaim it.

Two hazards are deliberately tolerated rather than prevented:

- A claim observed mid-write (file created but not yet filled) parses
  as unreadable; it is treated as live until its *mtime* exceeds the
  TTL, so a torn read never causes an early steal.
- A runner that outlives its own lease (suspended longer than the TTL
  between heartbeats) may race its thief.  Both then execute the same
  cell, but cells are deterministic and content-addressed, so both
  commit byte-identical documents — correctness survives, only the
  "zero duplicate executions" economy is lost.  Size the TTL well
  above the slowest cell to keep that path theoretical.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .keys import check_key, is_cell_key

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
        The *result store* root; claims live under ``<root>/claims``.
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
    """

    def __init__(
        self,
        root: str | Path,
        runner_id: str | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        workers: int = 1,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_ttl_s < 0:
            raise ValueError(f"lease_ttl_s must be >= 0, got {lease_ttl_s}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
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
        """Where the claim files live."""
        return self.root / "claims"

    def path_for(self, key: str) -> Path:
        """The claim file for ``key``; every key-taking method builds its
        path here, so this is where the key is checked."""
        check_key(key)
        return self.directory / f"{key}.claim"

    # -- taking and keeping a claim ------------------------------------

    def try_claim(self, key: str) -> bool:
        """Atomically claim ``key``; True iff this runner now holds it.

        A live foreign claim loses the race (returns False); a stale
        one is reclaimed.  Never blocks.
        """
        path = self.path_for(key)
        if self._create(path):
            return True
        claim = self._load(key, path)
        if claim is None:
            # Released between our create attempt and the read: one
            # more exclusive create, then give up to whoever won.
            return self._create(path)
        if not claim.is_stale(self.clock()):
            return False
        return self._steal(path)

    def heartbeat(self, key: str) -> bool:
        """Re-stamp our claim on ``key``; False if the claim was lost.

        Losing a claim (stolen after going stale, or released by a
        bug) means another runner may be executing the cell — the
        caller should finish anyway (results are deterministic) but
        must not release the thief's claim.
        """
        path = self.path_for(key)
        claim = self._load(key, path)
        if claim is None or claim.runner_id != self.runner_id:
            return False
        temporary = self.directory / f".{key}.{self.runner_id}.hb.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(self._payload(claim.claimed_at, self.clock()))
        try:
            os.replace(temporary, path)
        except FileNotFoundError:
            # The temp file was swept from under us (an over-eager
            # cleaner) — the claim itself still stands, so report the
            # heartbeat as failed rather than crash the batch.
            return False
        return True

    def release(self, key: str) -> bool:
        """Drop our claim on ``key``; False if we did not hold it."""
        path = self.path_for(key)
        claim = self._load(key, path)
        if claim is None or claim.runner_id != self.runner_id:
            return False
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    # -- observing claims ----------------------------------------------

    def get(self, key: str) -> Claim | None:
        """The current claim on ``key``, or None if unclaimed."""
        return self._load(key, self.path_for(key))

    def claims(self) -> Iterator[Claim]:
        """Every current claim, sorted by key."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.claim")):
            key = path.name[: -len(".claim")]
            if is_cell_key(key):
                claim = self._load(key, path)
                if claim is not None:
                    yield claim

    def prune(self, is_settled: Callable[[str], bool]) -> int:
        """Crash recovery: drop claims whose cell no longer needs one.

        Removes claims for keys ``is_settled`` confirms (their result
        was committed before the holder died), plus graveyard and
        heartbeat temp files orphaned by a crash mid-steal or
        mid-heartbeat, but only litter older than this store's lease
        TTL, so a runner joining mid-sweep never yanks a live runner's
        in-flight heartbeat file.  Returns the number of files removed.
        Stale claims on *unsettled* cells are left for
        :meth:`try_claim`'s reclaim path, which re-executes them
        exactly once.
        """
        if not self.directory.is_dir():
            return 0
        cutoff = self.clock() - self.lease_ttl_s
        removed = 0
        for path in list(self.directory.glob("*.claim.stale.*")) + list(
            self.directory.glob(".*.tmp")
        ):
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        for path in list(self.directory.glob("*.claim")):
            key = path.name[: -len(".claim")]
            if is_cell_key(key) and is_settled(key):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    # -- internals -----------------------------------------------------

    def _load(self, key: str, path: Path) -> Claim | None:
        """The claim in ``path`` (``key``'s claim file), or None.

        A file whose payload is missing or malformed — a claim observed
        mid-write, or a foreign format — is attributed to nobody and
        judged by its mtime, so a torn read never causes an early steal.
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            fields = json.loads(raw)
            return Claim(
                key=key,
                runner_id=str(fields["runner_id"]),
                claimed_at=float(fields["claimed_at"]),
                heartbeat_at=float(fields["heartbeat_at"]),
                lease_ttl_s=float(fields["lease_ttl_s"]),
                workers=int(fields.get("workers", 1)),
            )
        except (KeyError, TypeError, ValueError):
            pass
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            return None
        return Claim(
            key=key,
            runner_id="<unreadable>",
            claimed_at=mtime,
            heartbeat_at=mtime,
            lease_ttl_s=self.lease_ttl_s,
            readable=False,
        )

    def _payload(self, claimed_at: float, heartbeat_at: float) -> str:
        fields: dict[str, Any] = {
            "runner_id": self.runner_id,
            "claimed_at": claimed_at,
            "heartbeat_at": heartbeat_at,
            "lease_ttl_s": self.lease_ttl_s,
            "workers": self.workers,
        }
        # allow_nan=False is a no-op for the finite timestamps/TTLs a
        # claim holds — it backstops the strict-JSON contract (RPR006).
        return json.dumps(fields, sort_keys=True, allow_nan=False) + "\n"

    def _create(self, path: Path) -> bool:
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
        now = self.clock()
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(self._payload(now, now))
        return True

    def _steal(self, path: Path) -> bool:
        """Reclaim a stale claim; True iff we now hold it.

        The rename moves the stale file to a name no other runner
        targets, so exactly one of any number of simultaneous thieves
        wins it; the winner then competes in a normal exclusive create
        (it may still lose that to a runner that arrived after the
        rename — fine, *someone* holds the cell exactly once).
        """
        grave = path.with_name(f"{path.name}.stale.{self.runner_id}")
        try:
            os.rename(path, grave)
        except FileNotFoundError:
            return False
        try:
            grave.unlink()
        except FileNotFoundError:
            pass
        return self._create(path)
