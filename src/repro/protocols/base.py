"""The shared query lifecycle every search protocol runs on.

§3.1 of the paper fixes the mechanics common to all four compared
systems — this module implements them once:

1. a requestor issues a keyword query with a TTL budget;
2. peers suppress duplicate copies, check their *local file store*,
   optionally check a *response index* (protocol hook), and answer by
   sending a response down the query's reverse path;
3. peers forward the query to protocol-chosen neighbors while TTL
   remains (flooding forwards even after answering; index-caching
   protocols stop at a hit — "the query is propagated until a
   satisfying file is found at some node", §4.2);
4. the requestor collects responses for a short window after the first
   arrival, selects a provider (protocol hook), downloads via direct
   connection, and *shares the downloaded file* (natural replication,
   §3.1/§4.1.2);
5. a per-query accounting event finalises the three paper metrics:
   success, download distance (requestor↔provider RTT), and message
   count ("total number of messages produced by a query", §5.2).

Subclasses override the hooks marked ``# hook`` below; everything
else — timing, bookkeeping, metrics — is identical across protocols so
comparisons are apples-to-apples.

The two message handlers, :meth:`SearchProtocol._handle_query_message`
and :meth:`SearchProtocol._handle_response_message`, are the events
:meth:`~repro.overlay.network.P2PNetwork.send` schedules: each starts
with the arrival check (a copy that reaches a dead peer is counted
under ``messages.dropped_dead_peer`` and changes nothing else), and
counts per hop in place (``counter.value += 1``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property

from ..overlay.messages import ProviderEntry, Query, QueryResponse
from ..overlay.network import P2PNetwork
from ..overlay.peer import Peer
from ..sim.engine import Event
from ..sim.metrics import Counter

__all__ = ["QueryOutcome", "QueryContext", "SearchProtocol"]


@dataclass(frozen=True)
class QueryOutcome:
    """The finalised record of one network query (one figure sample)."""

    query_id: int
    index: int
    origin: int
    target_file: int
    keywords: tuple[str, ...]
    issued_at: float
    success: bool
    download_distance_ms: float
    """Requestor↔provider RTT; ``nan`` for failed queries."""
    messages: int
    responses: int
    provider: int | None
    downloaded_file: int | None


@dataclass
class QueryContext:
    """Mutable in-flight state of a query at its origin."""

    query_id: int
    index: int
    origin: int
    target_file: int
    keywords: tuple[str, ...]
    issued_at: float
    responses: list[QueryResponse] = field(default_factory=list)
    selection_event: Event | None = None
    satisfied: bool = False
    success: bool = False
    download_distance_ms: float = math.nan
    provider: int | None = None
    downloaded_file: int | None = None


class SearchProtocol:
    """Base class for Flooding, Dicas, Dicas-Keys, and Locaware."""

    #: Human-readable protocol name, overridden by subclasses.
    name = "base"

    #: Whether a peer keeps forwarding a query it has just answered.
    #: Flooding does (blind propagation); index-caching protocols stop
    #: (§4.2).
    forward_after_hit = False

    #: Called, when set, each time the last pending query is finalised —
    #: one of the two moments a run can become settled (the other is the
    #: workload's last arrival).  The experiment driver sets it.
    on_idle: Callable[[], None] | None = None

    def __init__(self, network: P2PNetwork) -> None:
        self.network = network
        self.config = network.config
        # Hot-path aliases: the tracer (emits are guarded with
        # ``if self.tracer.enabled:`` so disabled tracing costs one
        # attribute check) and the per-lifecycle counters.
        self.tracer = network.tracer
        self._index_lookups = network.metrics.counter("index.lookups")
        # The handlers' arrival check and peer lookup, one subscript each.
        self._alive = network.liveness.flags
        self._peers = network.peers
        # The network's duplicate-suppression table (open_query): a
        # delivered copy costs one dict lookup and one set test (plus
        # the insert, for a first copy).
        self._query_seen = network.query_seen
        self._flight_end = network.query_flight_end
        self._max_latency_s = network.underlay.max_latency_s
        self._next_query_id = 0
        self._query_index = 0
        self._contexts: dict[int, QueryContext] = {}
        self.outcomes: list[QueryOutcome] = []
        self.local_satisfactions = 0

    # Resolved once as well, but on first use: created at zero they
    # would add their keys to every run's metric snapshot.
    @cached_property
    def _duplicate_copies(self) -> Counter:
        return self.network.metrics.counter("queries.duplicate_copies")

    @cached_property
    def _hits(self) -> Counter:
        """Answered query copies: remote store / index hits and the
        origin's own index hits alike."""
        return self.network.metrics.counter("queries.hits")

    @cached_property
    def _late_or_extra(self) -> Counter:
        return self.network.metrics.counter("responses.late_or_extra")

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def start(self) -> None:  # hook
        """Arm any background processes (e.g. Locaware's Bloom pushes).

        Runners call this once, after construction and before the
        workload starts.  The default protocol needs none.
        """

    def routing_keys(self, keywords: tuple[str, ...]) -> tuple[int, int]:  # hook
        """The ``(group, keyword_mask)`` a query with ``keywords`` carries.

        Fixed by the keywords, so computed once when the query is issued
        and read from the query on every hop.  Blind flooding reads
        neither.
        """
        return 0, 0

    def check_index(self, peer: Peer, query: Query) -> QueryResponse | None:  # hook
        """Try to answer ``query`` from the peer's response index."""
        return None

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:  # hook
        """Neighbors to forward ``query`` to (duplicate/TTL handled here)."""
        raise NotImplementedError

    def on_response_transit(self, peer: Peer, response: QueryResponse) -> None:  # hook
        """Caching opportunity while a response passes through ``peer``."""

    def select_provider(
        self, context: QueryContext
    ) -> tuple[QueryResponse, ProviderEntry] | None:  # hook
        """Pick the provider to download from.

        The default policy models a baseline user taking the first
        result: iterate responses in arrival order and take the first
        *valid* provider (alive and actually sharing the file).
        """
        for response in context.responses:
            for provider in response.providers:
                if self.provider_is_valid(context, response.file_id, provider):
                    return response, provider
        return None

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------

    def issue_query(
        self, origin: int, file_id: int, keywords: tuple[str, ...]
    ) -> int | None:
        """Submit a query at ``origin``; returns its id (``None`` if the
        origin could satisfy it from its own shared files).

        Locally satisfiable queries never touch the network; they are
        excluded from the figure metrics exactly like a user who
        already has the file would not search for it.
        """
        origin_peer = self.network.peer(origin)
        if origin_peer.store.first_match(keywords) is not None:
            self.local_satisfactions += 1
            self.network.metrics.counter("queries.satisfied_locally").increment()
            return None
        query_id = self._next_query_id
        self._next_query_id += 1
        self._query_index += 1
        context = QueryContext(
            query_id=query_id,
            index=self._query_index,
            origin=origin,
            target_file=file_id,
            keywords=keywords,
            issued_at=self.network.sim.now,
        )
        self._contexts[query_id] = context
        self.network.metrics.counter("queries.issued").increment()
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "query.issue", qid=query_id, origin=origin,
                keywords=keywords,
            )
        group, keyword_mask = self.routing_keys(keywords)
        query = Query(
            query_id=query_id,
            origin=origin,
            origin_locid=origin_peer.locid,
            keywords=keywords,
            target_file=file_id,
            ttl=self.config.ttl,
            path=(origin,),
            group=group,
            keyword_mask=keyword_mask,
        )
        self.network.open_query(query_id, origin)
        # The origin may hold a matching index itself (its response
        # index is the first place to look; its file store was checked
        # above).
        self._index_lookups.value += 1
        cached = self.check_index(origin_peer, query)
        answered = False
        if cached is not None:
            self._hits.value += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.network.sim.now, "query.hit",
                    qid=query_id, peer=origin, source="index",
                )
            self._deliver_to_origin(origin_peer, cached)
            answered = True
        if not answered or self.forward_after_hit:
            self._forward(origin_peer, query)
        self.network.sim.schedule(
            self.config.query_timeout_s, self._finalize_query, query_id
        )
        return query_id

    # -- query propagation ----------------------------------------------

    def _gid_neighbors(
        self, row: Iterable[int], last_hop: int, group: int
    ) -> list[int]:
        """Members of ``row`` other than ``last_hop`` whose Gid is ``group``."""
        peers = self.network.peers
        return [n for n in row if n != last_hop and peers[n].gid == group]

    def _fallback_neighbors(
        self, peer_id: int, last_hop: int, origin_locid: int | None = None
    ) -> list[int]:
        """§4.2's last resort, shared by the Gid/Bloom protocols.

        Up to ``config.fallback_fanout`` neighbors of ``peer_id`` other
        than ``last_hop``, best connected first, ties towards smaller ids
        (the order ``OverlayGraph.ranked_neighbors`` keeps per wiring),
        so restricted routing keeps moving on sparse overlays instead of
        dead-ending.  Given ``origin_locid``, equally connected
        neighbors in the requestor's locality come first.
        """
        graph = self.network.graph
        ranked = [n for n in graph.ranked_neighbors(peer_id) if n != last_hop]
        if origin_locid is not None:
            degree, peers = graph.degree, self.network.peers
            ranked.sort(key=lambda n: (-degree(n), peers[n].locid != origin_locid, n))
        return ranked[: self.config.fallback_fanout]

    def _forward(self, peer: Peer, query: Query) -> None:
        if query.ttl <= 0:
            return
        targets = self.select_forward_targets(peer, query)
        if not targets:
            return
        peer_id = peer.peer_id
        copy = query.forwarded(peer_id)
        query_id = query.query_id
        # Every copy sent now has arrived by then (open_query).
        self._flight_end[query_id] = self.network.sim.now + self._max_latency_s
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "query.forward",
                qid=query_id, peer=peer_id, ttl=copy.ttl,
                targets=list(targets),
            )
        self.network.send(
            peer_id, targets, self._handle_query_message, copy, query_id, "query"
        )

    def _handle_query_message(self, dst: int, message: object) -> None:
        if not self._alive[dst]:
            self.network.dropped_dead_peer.value += 1
            return
        query = message  # type: Query
        seen = self._query_seen[query.query_id]
        if dst in seen:
            self._duplicate_copies.value += 1
        else:
            seen.add(dst)
            self._process_query_at(self._peers[dst], query)

    def _process_query_at(self, peer: Peer, query: Query) -> None:
        """Store check → index check → forward (§3.1 + §4.2)."""
        answered = False
        source = "store"
        local_match = peer.store.first_match(query.keywords)
        if local_match is not None:
            response = self.build_store_response(peer, query, local_match)
            self._route_response(peer.peer_id, response)
            answered = True
        else:
            self._index_lookups.value += 1
            cached = self.check_index(peer, query)
            if cached is not None:
                self._route_response(peer.peer_id, cached)
                answered = True
                source = "index"
        if answered:
            self._hits.value += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.network.sim.now, "query.hit",
                    qid=query.query_id, peer=peer.peer_id, source=source,
                )
        if not answered or self.forward_after_hit:
            self._forward(peer, query)

    # -- responses -----------------------------------------------------------

    def build_store_response(
        self, peer: Peer, query: Query, file_id: int
    ) -> QueryResponse:
        """Response for a file-store hit.  Subclasses may extend the
        provider list (Locaware adds cached providers)."""
        return self._answer(
            peer, query, file_id, self.network.catalog.filename(file_id),
            (ProviderEntry(peer.peer_id, peer.locid),),
        )

    def _answer(
        self,
        peer: Peer,
        query: Query,
        file_id: int,
        filename: str,
        providers: tuple[ProviderEntry, ...],
    ) -> QueryResponse:
        """The response ``peer`` sends back for ``query`` — from its file
        store or its response index — advertising ``providers``."""
        return QueryResponse(
            query_id=query.query_id,
            origin=query.origin,
            origin_locid=query.origin_locid,
            keywords=query.keywords,
            file_id=file_id,
            filename=filename,
            providers=providers,
            responder=peer.peer_id,
            reverse_path=tuple(reversed(query.path)),
        )

    def _route_response(self, sender: int, response: QueryResponse) -> None:
        reverse_path = response.reverse_path
        if not reverse_path:
            # Responder is the origin itself (origin index hit).
            self._deliver_to_origin(self._peers[response.origin], response)
            return
        self.network.send(
            sender, (reverse_path[0],), self._handle_response_message,
            response.advanced(), response.query_id, "response",
        )

    def _handle_response_message(self, dst: int, message: object) -> None:
        if not self._alive[dst]:
            self.network.dropped_dead_peer.value += 1
            return
        response = message  # type: QueryResponse
        peer = self._peers[dst]
        if response.reverse_path:
            self.on_response_transit(peer, response)
            self._route_response(dst, response)
        else:
            if dst != response.origin:
                # Reverse path corrupted (should not happen).
                self.network.metrics.counter("responses.misrouted").value += 1
                return
            self.on_response_transit(peer, response)
            self._deliver_to_origin(peer, response)

    def _deliver_to_origin(self, origin_peer: Peer, response: QueryResponse) -> None:
        context = self._contexts.get(response.query_id)
        if context is None or context.satisfied:
            self._late_or_extra.value += 1
            return
        context.responses.append(response)
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "response.delivered",
                qid=response.query_id, responder=response.responder,
            )
        if context.selection_event is None:
            context.selection_event = self.network.sim.schedule(
                self.config.response_window_s, self._run_selection, response.query_id
            )

    # -- selection & download -----------------------------------------------

    def provider_is_valid(
        self, context: QueryContext, file_id: int, provider: ProviderEntry
    ) -> bool:
        """A provider can serve iff alive, sharing the file, and not the
        requestor itself."""
        if provider.peer_id == context.origin:
            return False
        candidate = self.network.peer(provider.peer_id)
        return candidate.alive and candidate.store.contains(file_id)

    def _run_selection(self, query_id: int) -> None:
        context = self._contexts.get(query_id)
        if context is None or context.satisfied:
            return
        context.selection_event = None
        choice = self.select_provider(context)
        if choice is None:
            # Every advertised provider was stale; a later response may
            # still save the query (a fresh selection window is opened
            # on the next arrival).
            self.network.metrics.counter("queries.selection_failed").increment()
            return
        response, provider = choice
        context.satisfied = True
        context.success = True
        context.provider = provider.peer_id
        context.downloaded_file = response.file_id
        context.download_distance_ms = self.network.underlay.rtt_ms(
            context.origin, provider.peer_id
        )
        self.network.metrics.counter("queries.succeeded").increment()
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "query.satisfied",
                qid=query_id, provider=provider.peer_id,
                distance_ms=context.download_distance_ms,
            )
        # Natural replication: the requestor becomes a provider once the
        # direct-connection download completes (§3.1).
        transfer_s = 2.0 * self.network.underlay.rtt_ms(
            context.origin, provider.peer_id
        ) / 1000.0
        self.network.sim.schedule(
            transfer_s, self._complete_download, context.origin, response.file_id
        )

    def _complete_download(self, origin: int, file_id: int) -> None:
        peer = self.network.peer(origin)
        if peer.alive:
            peer.store.add(file_id)
            self.network.metrics.counter("downloads.completed").increment()

    # -- accounting ---------------------------------------------------------

    def _finalize_query(self, query_id: int) -> None:
        context = self._contexts.get(query_id)
        if context is None:
            return
        if context.selection_event is not None:
            # A selection window is still open: the last response
            # arrived inside the timeout but its window lands after it.
            # The providers are in hand — run the selection now instead
            # of discarding them and counting the query failed.
            self.network.sim.cancel(context.selection_event)
            context.selection_event = None
            self._run_selection(query_id)
        del self._contexts[query_id]
        messages = self.network.forget_query_messages(query_id)
        if not context.success:
            self.network.metrics.counter("queries.failed").increment()
        if self.tracer.enabled:
            self.tracer.emit(
                self.network.sim.now, "query.finalize",
                qid=query_id, success=context.success, messages=messages,
                responses=len(context.responses),
            )
        self.outcomes.append(
            QueryOutcome(
                query_id=context.query_id,
                index=context.index,
                origin=context.origin,
                target_file=context.target_file,
                keywords=context.keywords,
                issued_at=context.issued_at,
                success=context.success,
                download_distance_ms=context.download_distance_ms,
                messages=messages,
                responses=len(context.responses),
                provider=context.provider,
                downloaded_file=context.downloaded_file,
            )
        )
        if not self._contexts and self.on_idle is not None:
            self.on_idle()

    # -- conveniences for runners -------------------------------------------

    @property
    def pending_queries(self) -> int:
        """Queries issued but not yet finalised."""
        return len(self._contexts)
