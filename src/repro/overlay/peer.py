"""Peer state.

A :class:`Peer` is deliberately a thin state container: identity,
locality, group id, shared files, liveness, and a bounded
duplicate-suppression set for query ids.  *Behaviour* lives in the
protocol objects (:mod:`repro.protocols`, :mod:`repro.core`) so that
the same peer population can be re-run under Flooding, Dicas,
Dicas-Keys, or Locaware; protocol-specific state (response indexes,
Bloom filters) is attached by the protocol under its own key of
``protocol_state`` the first time the peer caches or hears something.
"""

from __future__ import annotations

from itertools import compress
from typing import Any

from ..files.storage import FileStore

__all__ = ["BoundedSet", "LivenessTable", "Peer"]


class LivenessTable:
    """Struct-of-arrays liveness flags for a dense peer population.

    The per-message delivery check and the per-arrival alive census are
    the two hottest liveness reads in the simulator; chasing ``Peer``
    objects for a one-bit answer costs an attribute load and a pointer
    dereference per peer.  This table keeps the flags in one bytearray
    (``flags[pid]`` ∈ {0, 1}), a running alive count, and a lazily
    rebuilt ascending tuple of alive ids — the same order the old
    object-walk produced.

    :class:`Peer` objects bound to a table (see :meth:`Peer.
    bind_liveness`) keep their ``peer.alive`` read/write API; writes
    flow through :meth:`set_alive` so count and cache stay consistent.
    """

    __slots__ = ("flags", "_alive_count", "_alive_ids")

    def __init__(self, num_peers: int) -> None:
        if num_peers < 0:
            raise ValueError(f"num_peers must be non-negative, got {num_peers}")
        self.flags = bytearray(b"\x01" * num_peers)
        self._alive_count = num_peers
        self._alive_ids: tuple[int, ...] | None = None

    @property
    def num_peers(self) -> int:
        """Population size (alive or not)."""
        return len(self.flags)

    def is_alive(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is up."""
        return bool(self.flags[peer_id])

    def set_alive(self, peer_id: int, value: bool) -> None:
        """Flip ``peer_id``'s flag, keeping count and id cache coherent."""
        flag = 1 if value else 0
        if self.flags[peer_id] == flag:
            return
        self.flags[peer_id] = flag
        self._alive_count += 1 if flag else -1
        self._alive_ids = None

    def alive_count(self) -> int:
        """Number of alive peers — O(1)."""
        return self._alive_count

    def alive_ids(self) -> tuple[int, ...]:
        """Ascending ids of alive peers, as a shared immutable tuple.

        The tuple is rebuilt only after a liveness change and handed out
        as is, so a steady-state caller copies nothing."""
        cache = self._alive_ids
        if cache is None:
            flags = self.flags
            cache = self._alive_ids = tuple(compress(range(len(flags)), flags))
        return cache


class BoundedSet:
    """An insertion-ordered set that evicts its oldest members.

    Gnutella peers remember recently seen query ids to drop duplicate
    floods; remembering *every* id forever would grow without bound, so
    real implementations (and this one) keep a sliding window.  The
    window must merely outlive a query's lifetime (seconds) — the
    default capacity is generous for that.

    Backed by a plain ``dict``: the cheapest insert and the smallest
    footprint while the window is not full, which is every peer of
    nearly every run (one set per peer, one insert per delivered first
    copy).  Once full, each insert also finds the oldest key by skipping
    the slots evictions freed since the dict last resized — at most a
    small multiple of ``capacity`` of them, never the run's history.
    """

    __slots__ = ("_capacity", "_items")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # A dict iterates in insertion order, so its first key is the oldest.
        self._items: dict[Any, None] = {}

    def add(self, item: Any) -> bool:
        """Insert ``item``; returns ``False`` if it was already present."""
        items = self._items
        if item in items:
            return False
        items[item] = None
        if len(items) > self._capacity:
            del items[next(iter(items))]
        return True

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> int:
        """Maximum number of retained items."""
        return self._capacity

    def clear(self) -> None:
        """Forget everything."""
        self._items.clear()


class Peer:
    """One participant peer (§3.1).

    Attributes
    ----------
    peer_id:
        Dense integer id; doubles as the underlay coordinate index.
    locid:
        Landmark-ordering locality id computed at arrival (§4.1.1).
    gid:
        Dicas-style group id, randomly chosen in ``[0, M)`` (§3.2).
    store:
        The peer's shared files (initial endowment + downloads).
    alive:
        Churn flag; dead peers neither receive nor send.
    protocol_state:
        Namespace dict the active protocol fills on first use (e.g.
        Locaware's response index and Bloom filters); empty for a peer
        that has cached and heard nothing this session.
    """

    __slots__ = (
        "peer_id",
        "locid",
        "gid",
        "store",
        "_alive",
        "_liveness",
        "seen_queries",
        "protocol_state",
    )

    def __init__(
        self,
        peer_id: int,
        locid: int,
        gid: int,
        store: FileStore,
        seen_capacity: int = 2048,
    ) -> None:
        self.peer_id = peer_id
        self.locid = locid
        self.gid = gid
        self.store = store
        self._alive = True
        self._liveness: LivenessTable | None = None
        self.seen_queries = BoundedSet(seen_capacity)
        self.protocol_state: dict[str, Any] = {}

    @property
    def alive(self) -> bool:
        """Churn flag; dead peers neither receive nor send."""
        table = self._liveness
        if table is None:
            return self._alive
        return bool(table.flags[self.peer_id])

    @alive.setter
    def alive(self, value: bool) -> None:
        table = self._liveness
        if table is None:
            self._alive = bool(value)
        else:
            table.set_alive(self.peer_id, bool(value))

    def bind_liveness(self, table: LivenessTable) -> None:
        """Back this peer's ``alive`` flag by a shared table.

        Called by :class:`~repro.overlay.network.P2PNetwork` at
        assembly; the peer's current state is carried into the table."""
        table.set_alive(self.peer_id, self._alive)
        self._liveness = table

    def mark_seen(self, query_id: int) -> bool:
        """Record a query id; ``False`` means duplicate (drop the copy)."""
        return self.seen_queries.add(query_id)

    def reset_session_state(self) -> None:
        """Forget soft state on leave (caches die with the session).

        The file store survives — files live on the peer's disk — but
        duplicate-suppression and protocol caches are session-scoped: a
        rejoined peer is a peer whose ``protocol_state`` is empty again.
        """
        self.seen_queries.clear()
        self.protocol_state.clear()

    def __repr__(self) -> str:
        return (
            f"Peer(id={self.peer_id}, locid={self.locid}, gid={self.gid}, "
            f"files={self.store.size}, alive={self.alive})"
        )
