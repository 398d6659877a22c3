"""Peer state.

A :class:`Peer` is deliberately a thin state container: identity,
locality, group id, shared files and liveness.  The queries a peer has
processed are not kept here but in the network's duplicate-suppression
table, per query in flight
(:meth:`~repro.overlay.network.P2PNetwork.open_query`).  *Behaviour*
lives in the protocol objects (:mod:`repro.protocols`,
:mod:`repro.core`) so that the same peer population can be re-run
under Flooding, Dicas, Dicas-Keys, or Locaware; protocol-specific
state (response indexes, Bloom filters) is attached by the protocol
under its own key of ``protocol_state`` the first time the peer caches
or hears something.
"""

from __future__ import annotations

from itertools import compress
from typing import Any

from ..files.storage import FileStore

__all__ = ["LivenessTable", "Peer"]


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
        "protocol_state",
    )

    def __init__(
        self,
        peer_id: int,
        locid: int,
        gid: int,
        store: FileStore,
    ) -> None:
        self.peer_id = peer_id
        self.locid = locid
        self.gid = gid
        self.store = store
        self._alive = True
        self._liveness: LivenessTable | None = None
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

    def reset_session_state(self) -> None:
        """Forget soft state on leave (caches die with the session).

        The file store survives — files live on the peer's disk — but
        protocol caches are session-scoped: a rejoined peer is a peer
        whose ``protocol_state`` is empty again.  The queries it has
        processed are forgotten by the network's duplicate-suppression
        table on the same leave
        (:meth:`~repro.overlay.network.P2PNetwork.forget_queries_seen_by`).
        """
        self.protocol_state.clear()

    def __repr__(self) -> str:
        return (
            f"Peer(id={self.peer_id}, locid={self.locid}, gid={self.gid}, "
            f"files={self.store.size}, alive={self.alive})"
        )
