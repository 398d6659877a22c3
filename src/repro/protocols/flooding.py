"""Blind flooding — the Gnutella baseline (§3.1).

"Query routing is done by blindly flooding q over the P2P network and
is bounded by a fixed TTL."  Every peer forwards every fresh query copy
to all neighbors except the one it came from, regardless of whether it
could answer, until the TTL budget runs out.  No caching, no routing
intelligence: maximal search scope (best success rate in Fig 4) at
maximal message cost (the 98% overhead Fig 3 charges it with).
"""

from __future__ import annotations


from ..overlay.messages import Query
from ..overlay.peer import Peer
from .base import SearchProtocol

__all__ = ["FloodingProtocol"]


class FloodingProtocol(SearchProtocol):
    """Blind TTL-bounded flooding."""

    name = "flooding"
    forward_after_hit = True  # blind: answering does not stop propagation

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """All neighbors except the copy's sender."""
        last_hop = query.path[-1]
        return [
            neighbor
            for neighbor in self.network.graph.neighbors_view(peer.peer_id)
            if neighbor != last_hop
        ]
