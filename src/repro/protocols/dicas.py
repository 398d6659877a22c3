"""Dicas (Wang et al., TPDS 2006) — group-id index caching, filename search.

Reimplemented from the Locaware paper's description (§2, §3.2, §5.1):

- every peer holds a random group id ``Gid ∈ [0, M)``;
- a passing query response for file ``f`` is cached only by reverse-path
  peers whose ``Gid == hash(f) mod M`` (one provider per filename);
- a query is routed to neighbors whose ``Gid`` matches the *query's*
  group — computable exactly when the query is the whole filename.

The paper evaluates Dicas under a *keyword* workload ("designed for
filename search"): a query holding only a subset of the filename's
keywords hashes to the wrong group, so routing is misled (§5.2) and the
query relies on the last-resort forwarding to stumble on a hit.  That
mismatch is what Fig 4 quantifies.
"""

from __future__ import annotations


from ..overlay.messages import Query, QueryResponse
from ..overlay.peer import Peer
from .base import SearchProtocol
from .groups import file_group, query_group_guess
from .index_cache import PlainIndexCache

__all__ = ["DicasProtocol"]

_STATE_KEY = "dicas_index"


class DicasProtocol(SearchProtocol):
    """Dicas: Gid-restricted caching + Gid routing on filename hashes."""

    name = "dicas"
    forward_after_hit = False  # propagation stops at a satisfying node

    def index_of(self, peer: Peer) -> PlainIndexCache:
        """The peer's response index, made on first use."""
        cache = peer.protocol_state.get(_STATE_KEY)
        if cache is None:
            cache = PlainIndexCache(self.config.index_capacity)
            peer.protocol_state[_STATE_KEY] = cache
        return cache

    # -- routing ----------------------------------------------------------

    def query_group(self, query: Query) -> int:
        """The group Dicas guesses for a (possibly partial) keyword query."""
        return query_group_guess(query.keywords, self.config.group_count)

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """Gid-matching neighbors; else the best-connected ones."""
        return self._route_to_group(peer, query.last_hop, self.query_group(query))

    def _route_to_group(self, peer: Peer, last_hop: int, group: int) -> list[int]:
        row = self.network.graph.neighbors_view(peer.peer_id)
        return self._gid_neighbors(row, last_hop, group) or self._fallback_neighbors(
            peer.peer_id, last_hop
        )

    # -- caching ----------------------------------------------------------

    def _matches_gid(self, peer: Peer, filename: str) -> bool:
        return peer.gid == file_group(filename, self.config.group_count)

    def on_response_transit(self, peer: Peer, response: QueryResponse) -> None:
        """Cache the response at matching-Gid reverse-path peers (§3.2)."""
        if not self._matches_gid(peer, response.filename):
            return
        provider = response.providers[0]
        self.index_of(peer).put(response.filename, provider)
        self.network.metrics.counter("index.inserts").increment()
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "cache.insert",
                peer=peer.peer_id, filename=response.filename,
            )

    def check_index(self, peer: Peer, query: Query) -> QueryResponse | None:
        cache = peer.protocol_state.get(_STATE_KEY)
        if cache is None:  # nothing cached this session
            return None
        hit = cache.lookup(query.keywords)
        if hit is None:
            return None
        filename, provider = hit
        record = self.network.catalog.by_filename(filename)
        if record is None:
            return None
        self.network.metrics.counter("index.hits").increment()
        return QueryResponse(
            query_id=query.query_id,
            origin=query.origin,
            origin_locid=query.origin_locid,
            keywords=query.keywords,
            file_id=record.file_id,
            filename=filename,
            providers=(provider,),
            responder=peer.peer_id,
            reverse_path=tuple(reversed(query.path)),
        )
