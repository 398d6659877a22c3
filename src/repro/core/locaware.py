"""The Locaware protocol (§4) — the paper's contribution.

Locaware composes three mechanisms on top of the shared query
lifecycle:

1. **Location-aware index caching** (§4.1, Dicas's response index
   and caching path with p_f providers per filename instead of one,
   :class:`~repro.protocols.index_cache.LocationAwareIndex`):
   reverse-path peers whose Gid matches the filename cache *all*
   providers advertised by a passing response, plus the requestor
   itself as a brand-new provider.
2. **Bloom-filter keyword routing** (§4.2,
   :class:`~repro.core.bloom_router.BloomRouter`): queries follow
   neighbors whose (periodically pushed) keyword filter contains every
   query keyword, falling back to Gid matching, then to the
   best-connected neighbor.
3. **Location-aware provider selection** (§4.1.2 + §5.1,
   :class:`~repro.core.provider_selection.LocationAwareSelector`):
   same-locId providers first, RTT probing as fallback.

:class:`LocawareRoutingProtocol` (registered as
``locaware+locrouting``) adds the paper's future-work idea (§6): among
equally eligible next hops, prefer neighbors physically closer to the
requestor.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from ..overlay.messages import ProviderEntry, Query, QueryResponse
from ..overlay.network import P2PNetwork
from ..overlay.peer import Peer
from ..protocols.base import QueryContext
from ..protocols.dicas import INDEX_KEY, DicasProtocol
from ..protocols.groups import query_group_guess
from ..protocols.index_cache import IndexUpdate
from ..sim.metrics import Counter
from .bloom_router import BloomRouter
from .provider_selection import LocationAwareSelector

__all__ = ["LocawareProtocol", "LocawareRoutingProtocol"]


class LocawareProtocol(DicasProtocol):
    """Location-aware index caching with Bloom-filter keyword routing."""

    name = "locaware"
    location_aware_routing = False

    def __init__(self, network: P2PNetwork) -> None:
        self.bloom_router = BloomRouter(network)
        self.selector = LocationAwareSelector(network)
        super().__init__(network)

    # Resolved on first use, like the base class's lifecycle counters:
    # created at zero they would add keys to every run's metric snapshot.
    @cached_property
    def _routed_by_bf(self) -> Counter:
        return self.network.metrics.counter("routing.bf_match")

    @cached_property
    def _routed_by_gid(self) -> Counter:
        return self.network.metrics.counter("routing.gid_match")

    @cached_property
    def _routed_by_fallback(self) -> Counter:
        return self.network.metrics.counter("routing.fallback")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic Bloom-filter pushes (§4.2)."""
        self.bloom_router.start()

    def stop(self) -> None:
        """Stop background processes (end of experiment)."""
        self.bloom_router.stop()

    @property
    def providers_per_file(self) -> int:
        """§4.1.2: "the most recent p_f entries replace the oldest ones"."""
        return self.config.max_providers_per_file

    # -- caching (§4.1) ------------------------------------------------------

    def _transit_entries(self, response: QueryResponse) -> tuple[ProviderEntry, ...]:
        """§4.1.2: all advertised providers + the requestor."""
        return response.providers + (
            ProviderEntry(response.origin, response.origin_locid),
        )

    def _cache_entries(
        self, peer: Peer, filename: str, providers: Sequence[ProviderEntry]
    ) -> IndexUpdate:
        """Admit providers into the peer's index, syncing the Bloom filter."""
        update = super()._cache_entries(peer, filename, providers)
        catalog = self.network.catalog
        if update.inserted_filename:
            record = catalog.by_filename(filename)
            if record is not None:
                self.bloom_router.filename_cached(peer, record.keywords)
        for evicted in update.evicted_filenames:
            record = catalog.by_filename(evicted)
            if record is not None:
                self.bloom_router.filename_evicted(peer, record.keywords)
        return update

    # -- answering (§4.1.2) ------------------------------------------------

    def _ordered_providers(
        self,
        providers: list[ProviderEntry],
        origin: int,
        origin_locid: int,
    ) -> tuple[ProviderEntry, ...]:
        """LocId-matching entries first, then the rest (newest first),
        excluding the requestor itself, capped at the per-file bound."""
        matching = [
            p for p in providers if p.locid == origin_locid and p.peer_id != origin
        ]
        others = [
            p for p in providers if p.locid != origin_locid and p.peer_id != origin
        ]
        combined = matching + others
        return tuple(combined[: self.config.max_providers_per_file])

    def _after_index_hit(self, peer: Peer, query: Query, filename: str) -> None:
        """§4.1.2: "Peer B then adds in its RI the entry (E, 1) as a new
        provider of f" — the requestor becomes a provider."""
        self._cache_entries(
            peer, filename, (ProviderEntry(query.origin, query.origin_locid),)
        )

    def build_store_response(
        self, peer: Peer, query: Query, file_id: int
    ) -> QueryResponse:
        """A file-store hit advertises the holder plus any providers its
        index happens to know for the same file."""
        filename = self.network.catalog.filename(file_id)
        index = peer.protocol_state.get(INDEX_KEY)
        known = index.providers_of(filename) if index is not None else ()
        providers = (ProviderEntry(peer.peer_id, peer.locid),) + tuple(
            p for p in known if p.peer_id != peer.peer_id
        )
        ordered = self._ordered_providers(
            list(providers), query.origin, query.origin_locid
        )
        if not ordered:
            ordered = (ProviderEntry(peer.peer_id, peer.locid),)
        return self._answer(peer, query, file_id, filename, ordered)

    # -- routing (§4.2) -------------------------------------------------------

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """BF-matching neighbors; else Gid guess; else best-connected.

        The neighbor row is fetched once and shared by the first two
        rules; the last resort reads the overlay's ranking of that row.
        With the §6 extension (:class:`LocawareRoutingProtocol`)
        connectivity still leads the last resort — exploration is what
        finds results on a sparse overlay — but ties between equally
        connected neighbors break towards the *requestor's* locId,
        nudging blind propagation into the locality where a same-locId
        provider would be the ideal answer.  (Stronger biases — raw
        requestor RTT, locId-first — were tried and discarded: they
        trade away too much exploration and lose 2-8 points of success
        rate; see EXPERIMENTS.md.)
        """
        last_hop = query.last_hop
        keywords = query.keywords
        row = self.network.graph.neighbors_view(peer.peer_id)
        matches = self.bloom_router.neighbors_matching(
            peer, row, keywords, exclude=last_hop
        )
        if matches:
            self._routed_by_bf.value += 1
            return matches
        gid_matches = self._gid_neighbors(
            row, last_hop, query_group_guess(keywords, self.config.group_count)
        )
        if gid_matches:
            self._routed_by_gid.value += 1
            return gid_matches
        fallback = self._fallback_neighbors(
            peer.peer_id,
            last_hop,
            query.origin_locid if self.location_aware_routing else None,
        )
        if fallback:
            self._routed_by_fallback.value += 1
        return fallback

    # -- provider selection (§4.1.2 + §5.1) ----------------------------------

    def select_provider(
        self, context: QueryContext
    ) -> tuple[QueryResponse, ProviderEntry] | None:
        candidates: list[tuple[QueryResponse, ProviderEntry]] = []
        for response in context.responses:
            for provider in response.providers:
                if self.provider_is_valid(context, response.file_id, provider):
                    candidates.append((response, provider))
        return self.selector.choose(
            context.origin,
            self.network.peer(context.origin).locid,
            candidates,
            query_id=context.query_id,
        )


class LocawareRoutingProtocol(LocawareProtocol):
    """Locaware with the §6 location-aware routing extension."""

    name = "locaware+locrouting"
    location_aware_routing = True
