"""Dicas (Wang et al., TPDS 2006) — group-id index caching, filename search.

Reimplemented from the Locaware paper's description (§2, §3.2, §5.1):

- every peer holds a random group id ``Gid ∈ [0, M)``;
- a passing query response for file ``f`` is cached only by reverse-path
  peers whose ``Gid == hash(f) mod M`` (one provider per filename);
- a query is routed to neighbors whose ``Gid`` matches the *query's*
  group — computable exactly when the query is the whole filename; the
  guess is made once, when the query is issued, and travels with it.

The paper evaluates Dicas under a *keyword* workload ("designed for
filename search"): a query holding only a subset of the filename's
keywords hashes to the wrong group, so routing is misled (§5.2) and the
query relies on the last-resort forwarding to stumble on a hit.  That
mismatch is what Fig 4 quantifies.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from functools import cached_property

from ..overlay.messages import ProviderEntry, Query, QueryResponse
from ..overlay.peer import Peer
from ..sim.metrics import Counter
from .base import SearchProtocol
from .groups import file_group, query_group_guess
from .index_cache import IndexUpdate, LocationAwareIndex

__all__ = ["DicasProtocol"]

#: Where a peer keeps its response index in ``Peer.protocol_state``.
INDEX_KEY = "response_index"


class DicasProtocol(SearchProtocol):
    """Dicas: Gid-restricted caching + Gid routing on filename hashes.

    The response index and its caching path — ``index_of``,
    cache-on-transit, answering from the index — are the ones Dicas-Keys
    and Locaware run too; they differ through the methods marked
    ``# hook`` (Locaware also extends ``_cache_entries`` with its Bloom
    sync).
    """

    name = "dicas"
    forward_after_hit = False  # propagation stops at a satisfying node

    # Resolved on first use, like the base class's lifecycle counters:
    # created at zero they would add keys to every run's metric snapshot.
    @cached_property
    def _index_hits(self) -> Counter:
        return self.network.metrics.counter("index.hits")

    @cached_property
    def _index_inserts(self) -> Counter:
        return self.network.metrics.counter("index.inserts")

    @cached_property
    def _index_evictions(self) -> Counter:
        return self.network.metrics.counter("index.evictions")

    @property
    def providers_per_file(self) -> int:  # hook
        """p_f, the provider entries kept per cached filename: Dicas's
        index "contains the filename and the IP address of some provider
        peer" (§3.2)."""
        return 1

    def index_of(self, peer: Peer) -> LocationAwareIndex:
        """The peer's response index, made on first use."""
        index = peer.protocol_state.get(INDEX_KEY)
        if index is None:
            index = LocationAwareIndex(
                self.config.index_capacity, self.providers_per_file
            )
            peer.protocol_state[INDEX_KEY] = index
        return index

    # -- routing ----------------------------------------------------------

    def routing_keys(self, keywords: tuple[str, ...]) -> tuple[int, int]:
        """The group Dicas guesses for a (possibly partial) keyword query."""
        return query_group_guess(keywords, self.config.group_count), 0

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """Gid-matching neighbors; else the best-connected ones."""
        return self._route_to_group(peer, query.path[-1], query.group)

    def _route_to_group(self, peer: Peer, last_hop: int, group: int) -> list[int]:
        row = self.network.graph.neighbors_view(peer.peer_id)
        return self._gid_neighbors(row, last_hop, group) or self._fallback_neighbors(
            peer.peer_id, last_hop
        )

    # -- caching ----------------------------------------------------------

    def _cache_groups(self, response: QueryResponse) -> Collection[int]:  # hook
        """The groups whose peers cache ``response``: the filename's."""
        return (file_group(response.filename, self.config.group_count),)

    def _matches_gid(self, peer: Peer, response: QueryResponse) -> bool:
        return peer.gid in self._cache_groups(response)

    def _transit_entries(  # hook
        self, response: QueryResponse
    ) -> Sequence[ProviderEntry]:
        """The provider entries a caching peer takes from ``response``."""
        return response.providers

    def on_response_transit(self, peer: Peer, response: QueryResponse) -> None:
        """Cache the response at matching-Gid reverse-path peers (§3.2)."""
        if self._matches_gid(peer, response):
            self._cache_entries(
                peer, response.filename, self._transit_entries(response)
            )

    def _cache_entries(
        self, peer: Peer, filename: str, providers: Sequence[ProviderEntry]
    ) -> IndexUpdate:
        """Admit providers into the peer's index; count and trace a new
        filename and every filename it evicted."""
        update = self.index_of(peer).put(filename, providers)
        tracer = self.tracer
        if update.inserted_filename:
            self._index_inserts.value += 1
            if tracer.enabled:
                tracer.emit(
                    self.network.sim.now, "cache.insert",
                    peer=peer.peer_id, filename=filename,
                )
        for evicted in update.evicted_filenames:
            self._index_evictions.value += 1
            if tracer.enabled:
                tracer.emit(
                    self.network.sim.now, "cache.evict",
                    peer=peer.peer_id, filename=evicted,
                )
        return update

    # -- answering ----------------------------------------------------------

    def _ordered_providers(
        self, providers: list[ProviderEntry], origin: int, origin_locid: int
    ) -> tuple[ProviderEntry, ...]:  # hook
        """The cached providers an index hit advertises, in order."""
        return tuple(providers)

    def check_index(self, peer: Peer, query: Query) -> QueryResponse | None:
        index = peer.protocol_state.get(INDEX_KEY)
        if index is None:  # nothing cached this session
            return None
        hit = index.lookup(query.keywords)
        if hit is None:
            return None
        filename, providers = hit
        ordered = self._ordered_providers(providers, query.origin, query.origin_locid)
        if not ordered:
            return None
        file_id = self.network.catalog.file_id(filename)
        if file_id is None:
            return None
        self._index_hits.value += 1
        response = self._answer(peer, query, file_id, filename, ordered)
        self._after_index_hit(peer, query, filename)
        return response

    def _after_index_hit(self, peer: Peer, query: Query, filename: str) -> None:  # hook
        """What answering ``query`` from the index changes at ``peer``:
        nothing for Dicas.  (A hook rather than a ``check_index``
        override, so the misses that dominate lookups pay no extra call.)"""
