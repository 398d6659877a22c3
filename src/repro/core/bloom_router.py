"""Bloom-filter keyword routing state and update propagation (§4.2).

Each Locaware peer ``n`` maintains ``BF_n``, a Bloom filter over the
keywords of every filename cached in its response index.  Locally the
filter is a *counting* filter (cache evictions must delete keywords);
what neighbors receive is the plain 1200-bit vector, shipped as
changed-bit deltas on a periodic timer ("n periodically propagates
updates of BF_n to neighbors", with the footnote-1 encoding).

Routing reads the stored neighbor copies: a query is forwarded to the
neighbors whose filter contains **all** the query's keywords.  Copies
are eventually consistent — between pushes a neighbor's view lags the
cache, and false positives can mislead a hop; both effects are part of
the protocol and therefore part of the simulation.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..bloom.bloom_filter import BloomFilter
from ..bloom.counting import CountingBloomFilter
from ..bloom.delta import DeltaCodec
from ..overlay.messages import BloomUpdate
from ..overlay.network import P2PNetwork
from ..overlay.peer import Peer
from ..sim.engine import PeriodicProcess

__all__ = ["PeerBloomState", "BloomRouter"]

_STATE_KEY = "locaware_bloom"


class PeerBloomState:
    """One peer's filter plus its copies of the neighbors' filters."""

    __slots__ = ("cbf", "exported", "neighbor_filters")

    def __init__(self, bits: int, hashes: int) -> None:
        self.cbf = CountingBloomFilter(bits, hashes)
        #: The snapshot last pushed to neighbors (delta base).
        self.exported = BloomFilter(bits, hashes)
        #: neighbor id → our copy of their exported filter.
        self.neighbor_filters: dict[int, BloomFilter] = {}


class BloomRouter:
    """Manages every peer's Bloom state and the §4.2 update protocol."""

    def __init__(self, network: P2PNetwork) -> None:
        self._network = network
        self._bits = network.config.bloom_bits
        self._hashes = network.config.bloom_hashes
        self._codec = DeltaCodec(self._bits, self._hashes)
        self._period = network.config.bloom_update_period_s
        self._rng = network.streams.stream("bloom-router")
        self._pushes: PeriodicProcess | None = None
        self._membership_tests = network.metrics.counter("bloom.membership_tests")

    # -- state ------------------------------------------------------------

    def state_of(self, peer: Peer) -> PeerBloomState:
        """The peer's filter state, made on first use."""
        state = peer.protocol_state.get(_STATE_KEY)
        if state is None:
            state = PeerBloomState(self._bits, self._hashes)
            peer.protocol_state[_STATE_KEY] = state
        return state

    # -- cache synchronisation -----------------------------------------------

    def filename_cached(self, peer: Peer, keywords: Iterable[str]) -> None:
        """The response index admitted a new filename: insert keywords."""
        self.state_of(peer).cbf.add_all(keywords)

    def filename_evicted(self, peer: Peer, keywords: Iterable[str]) -> None:
        """The response index discarded a filename: delete keywords."""
        cbf = self.state_of(peer).cbf
        for keyword in keywords:
            cbf.discard(keyword)

    # -- periodic propagation ------------------------------------------------

    def start(self) -> None:
        """Arm every peer's periodic update push, phase-staggered so the
        pushes do not all land on the same simulation instant.

        One calendar holds every peer, each at a phase drawn uniformly
        within one period, in peer order.  Starting a router that is
        already started raises :class:`RuntimeError`.
        """
        if self._pushes is not None:
            raise RuntimeError("BloomRouter.start() called twice without stop()")
        uniform, period = self._rng.uniform, self._period
        self._pushes = PeriodicProcess(
            self._network.sim,
            period,
            self._push_updates,
            ((peer.peer_id, uniform(0.0, period)) for peer in self._network.peers),
        )

    def stop(self) -> None:
        """Stop every periodic push (end of an experiment)."""
        if self._pushes is not None:
            self._pushes.stop()
            self._pushes = None

    def _push_updates(self, peer_id: int) -> None:
        peer = self._network.peer(peer_id)
        # Most ticks end here, for the price of one int compare: the
        # vector equals the exported snapshot, or there is no state at
        # all (it dies with the session when a peer leaves).
        state = peer.protocol_state.get(_STATE_KEY)
        if state is None or state.cbf.bit_int() == state.exported.bit_int():
            return
        if not peer.alive or not self._network.graph.contains(peer_id):
            return
        current = state.cbf.to_bloom_filter()
        delta = self._codec.encode(state.exported, current)
        self._network.metrics.summary("bloom.update_bits").observe(
            float(delta.encoded_bits)
        )
        tracer = self._network.tracer
        if tracer.enabled:
            tracer.emit(
                self._network.sim.now, "bloom.push",
                peer=peer_id, bits=delta.encoded_bits, full=delta.is_full,
            )
        # One immutable update, shared by every neighbor's delivery.
        self._network.send(
            peer_id,
            self._network.graph.neighbors_view(peer_id),
            self._handle_update,
            BloomUpdate(sender=peer_id, delta=delta),
            kind="bloom_update",
        )
        state.exported = current

    def _handle_update(self, dst: int, message: object) -> None:
        update = message  # type: BloomUpdate
        peer = self._network.peer(dst)
        state = self.state_of(peer)
        stored = state.neighbor_filters.get(update.sender)
        if stored is None:
            stored = BloomFilter(self._bits, self._hashes)
            state.neighbor_filters[update.sender] = stored
        self._codec.decode_into(stored, update.delta)

    # -- routing queries ---------------------------------------------------------

    def neighbors_matching(
        self,
        peer: Peer,
        row: Iterable[int],
        keywords: Iterable[str],
        exclude: int | None = None,
    ) -> list[int]:
        """Members of ``row`` (the peer's neighbor row) whose stored filter
        contains every keyword (§4.2)."""
        state = peer.protocol_state.get(_STATE_KEY)
        if state is None or not state.neighbor_filters:
            return []
        stored_filter = state.neighbor_filters.get
        matches: list[int] = []
        tested = 0
        for neighbor in row:
            if neighbor == exclude:
                continue
            stored = stored_filter(neighbor)
            if stored is not None:
                tested += 1
                if stored.contains_all(keywords):
                    matches.append(neighbor)
        self._membership_tests.value += tested
        return matches
