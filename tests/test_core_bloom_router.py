"""Unit tests for the Bloom router (state, pushes, routing)."""

import random

import pytest

from repro.bloom import elements_mask
from repro.bloom.delta import DeltaCodec
from repro.core import BloomRouter
from repro.overlay import P2PNetwork
from repro.sim import RecordingTracer, SimulationConfig
from repro.sim.telemetry import BLOOM_STATE_KEY


def make_network(seed=5, period=10.0):
    config = SimulationConfig.small(seed=seed).replace(bloom_update_period_s=period)
    return P2PNetwork.build(config)


def mask_of(network, keywords):
    config = network.config
    return elements_mask(keywords, config.bloom_bits, config.bloom_hashes)


def covers(network, vector, keywords):
    """Whether a bit vector contains every keyword (the §4.2 match rule)."""
    mask = mask_of(network, keywords)
    return vector & mask == mask


class TestState:
    def test_first_use_creates_empty_state(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        assert peer.protocol_state == {}
        state = router.state_of(peer)
        assert list(peer.protocol_state.values()) == [state]
        assert state.cbf.bit_int() == 0
        assert state.exported == 0
        assert state.neighbor_filters == {}

    def test_state_sits_under_the_key_telemetry_reads(self):
        network = make_network()
        peer = network.peer(0)
        state = BloomRouter(network).state_of(peer)
        assert peer.protocol_state == {BLOOM_STATE_KEY: state}

    def test_reads_and_ticks_create_nothing(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        router.start()
        network.sim.run(until=12.0)
        router.stop()
        row = network.graph.neighbors_view(0)
        mask = router.keyword_mask(["kw1"])
        assert router.neighbors_matching(network.peer(0), row, mask) == []
        assert all(peer.protocol_state == {} for peer in network.peers)

    def test_a_second_start_is_refused_and_stop_ends_every_tick(self):
        network = make_network(period=10.0)
        router = BloomRouter(network)
        router.start()
        with pytest.raises(RuntimeError, match="twice"):
            router.start()
        router.stop()
        assert network.sim.run(until=100.0) == 0
        # Stopped, the router may start again.
        router.start()
        assert network.sim.run(until=200.0) >= network.config.num_peers
        router.stop()

    def test_state_of_creates_on_demand(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        assert router.state_of(peer) is router.state_of(peer)

    def test_cache_sync_inserts_and_evicts(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        router.filename_cached(peer, ["kw1", "kw2"])
        assert covers(network, router.state_of(peer).cbf.bit_int(), ["kw1"])
        router.filename_evicted(peer, ["kw1", "kw2"])
        assert router.state_of(peer).cbf.bit_int() == 0

    def test_shared_keywords_survive_partial_eviction(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        router.filename_cached(peer, ["shared", "a"])
        router.filename_cached(peer, ["shared", "b"])
        router.filename_evicted(peer, ["shared", "a"])
        vector = router.state_of(peer).cbf.bit_int()
        assert vector == mask_of(network, ["shared", "b"])


class TestPropagation:
    def test_push_reaches_neighbors(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        target = network.peer(0)
        router.filename_cached(target, ["kw1", "kw2", "kw3"])
        router.start()
        network.sim.run(until=12.0)
        router.stop()
        for neighbor_id in network.graph.neighbors(0):
            neighbor_state = router.state_of(network.peer(neighbor_id))
            stored = neighbor_state.neighbor_filters.get(0)
            assert stored is not None
            assert covers(network, stored, ["kw1", "kw2", "kw3"])

    def test_a_push_is_one_update_shared_by_every_delivery(self, monkeypatch):
        deliveries = []
        handle_update = BloomRouter._handle_update

        def recording(router, dst, message):
            deliveries.append((dst, message))
            handle_update(router, dst, message)

        monkeypatch.setattr(BloomRouter, "_handle_update", recording)
        network = make_network(period=5.0)
        router = BloomRouter(network)
        router.filename_cached(network.peer(0), ["kw1", "kw2", "kw3"])
        router.start()
        network.sim.run(until=6.0)
        router.stop()
        neighbors = sorted(network.graph.neighbors(0))
        assert sorted(dst for dst, _ in deliveries) == neighbors
        update = deliveries[0][1]
        assert update.sender == 0
        assert all(message is update for _, message in deliveries)
        assert network.metrics.counter("messages.bloom_update").value == len(deliveries)

    def test_no_change_no_message(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        router.start()
        network.sim.run(until=30.0)
        router.stop()
        assert network.metrics.counter("messages.bloom_update").value == 0

    def test_eviction_propagates(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        target = network.peer(0)
        router.filename_cached(target, ["kw1", "kw2"])
        router.start()
        network.sim.run(until=12.0)
        router.filename_evicted(target, ["kw1", "kw2"])
        network.sim.run(until=24.0)
        router.stop()
        neighbor_id = sorted(network.graph.neighbors(0))[0]
        stored = router.state_of(network.peer(neighbor_id)).neighbor_filters[0]
        assert stored == 0

    def test_update_sizes_respect_paper_bound(self):
        """One filename of 3 keywords changes ≤ 12 bits ⇒ ≤ 132 bits/update."""
        tracer = RecordingTracer(kinds=["bloom.push"])
        network = P2PNetwork.build(
            SimulationConfig.small(seed=5).replace(bloom_update_period_s=5.0),
            tracer=tracer,
        )
        router = BloomRouter(network)
        router.filename_cached(network.peer(0), ["kw1", "kw2", "kw3"])
        router.start()
        network.sim.run(until=6.0)
        router.stop()
        bits = [event.payload["bits"] for event in tracer.events]
        assert bits
        assert max(bits) <= 132
        counted = network.metrics.snapshot()
        assert counted["counter.bloom.pushes"] == len(bits)
        assert counted["counter.bloom.push_bits"] == sum(bits)

    def test_dead_peer_does_not_push(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        router.filename_cached(network.peer(0), ["kw1"])
        network.peer(0).alive = False
        router.start()
        network.sim.run(until=12.0)
        router.stop()
        assert network.metrics.counter("messages.bloom_update").value == 0


class TestRouting:
    def test_neighbors_matching_requires_all_keywords(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        state = router.state_of(peer)
        neighbor = sorted(network.graph.neighbors(0))[0]
        state.neighbor_filters[neighbor] = mask_of(network, ["kw1", "kw2"])
        row = network.graph.neighbors_view(0)

        def matching(keywords):
            return router.neighbors_matching(peer, row, router.keyword_mask(keywords))

        assert neighbor in matching(["kw1"])
        assert neighbor in matching(("kw1", "kw2"))
        assert neighbor not in matching(iter(["kw1", "zz-absent"]))

    def test_exclude_filters_last_hop(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        state = router.state_of(peer)
        for neighbor in network.graph.neighbors(0):
            state.neighbor_filters[neighbor] = mask_of(network, ["kw1"])
        some_neighbor = sorted(network.graph.neighbors(0))[0]
        matches = router.neighbors_matching(
            peer, network.graph.neighbors_view(0), router.keyword_mask(["kw1"]),
            exclude=some_neighbor,
        )
        assert some_neighbor not in matches

    def test_unknown_neighbors_do_not_match(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        row = network.graph.neighbors_view(0)
        assert router.neighbors_matching(peer, row, router.keyword_mask(["kw1"])) == []


class TestChangeDrivenPush:
    """The periodic tick stays, but only a changed vector is materialised,
    encoded and shipped."""

    PERIOD = 5.0

    @staticmethod
    def count_encodes(monkeypatch):
        calls = []
        encode = DeltaCodec.encode

        def counting_encode(codec, old, new):
            calls.append((old, new))
            return encode(codec, old, new)

        monkeypatch.setattr(DeltaCodec, "encode", counting_encode)
        return calls

    def started_router(self):
        network = make_network(period=self.PERIOD)
        router = BloomRouter(network)
        router.start()
        return network, router

    @staticmethod
    def updates_sent(network):
        return network.metrics.counter("messages.bloom_update").value

    def test_idle_periods_encode_nothing(self, monkeypatch):
        encodes = self.count_encodes(monkeypatch)
        network, router = self.started_router()
        network.sim.run(until=6 * self.PERIOD)
        router.stop()
        # Every peer ticked six times (the timers are still there) ...
        assert network.sim.events_processed >= 6 * network.config.num_peers
        # ... and none of the ticks encoded or sent anything.
        assert encodes == []
        assert self.updates_sent(network) == 0

    def test_cache_then_evict_between_pushes_sends_nothing(self, monkeypatch):
        encodes = self.count_encodes(monkeypatch)
        network, router = self.started_router()
        network.sim.run(until=self.PERIOD)
        peer = network.peer(0)
        router.filename_cached(peer, ["kw1", "kw2", "kw3"])
        assert router.state_of(peer).cbf.bit_int() != 0
        router.filename_evicted(peer, ["kw1", "kw2", "kw3"])
        network.sim.run(until=3 * self.PERIOD)
        router.stop()
        assert encodes == []
        assert self.updates_sent(network) == 0

    def test_one_changed_filter_is_one_encode_and_degree_updates(self, monkeypatch):
        encodes = self.count_encodes(monkeypatch)
        network, router = self.started_router()
        peer = network.peer(0)
        router.filename_cached(peer, ["kw1", "kw2", "kw3"])
        network.sim.run(until=4 * self.PERIOD)
        router.stop()
        assert encodes == [(0, router.state_of(peer).cbf.bit_int())]
        assert self.updates_sent(network) == network.graph.degree(0)
        assert router.state_of(peer).exported == mask_of(network, ["kw1", "kw2", "kw3"])

    def test_dead_peer_holds_its_delta_until_the_first_tick_after_rejoin(
        self, monkeypatch
    ):
        encodes = self.count_encodes(monkeypatch)
        network, router = self.started_router()
        peer = network.peer(0)
        router.filename_cached(peer, ["kw1", "kw2"])
        peer.alive = False
        network.sim.run(until=3 * self.PERIOD)
        assert encodes == []
        assert self.updates_sent(network) == 0
        peer.alive = True
        network.sim.run(until=4 * self.PERIOD)  # exactly one more tick
        router.stop()
        assert len(encodes) == 1
        assert self.updates_sent(network) == network.graph.degree(0)

    def test_removed_peer_holds_its_delta_until_it_is_linked_again(
        self, monkeypatch
    ):
        encodes = self.count_encodes(monkeypatch)
        network, router = self.started_router()
        router.filename_cached(network.peer(0), ["kw1", "kw2"])
        network.graph.remove_peer(0)
        network.sim.run(until=3 * self.PERIOD)
        assert encodes == []
        assert self.updates_sent(network) == 0
        network.graph.add_peer(0, 3, random.Random(1))
        network.sim.run(until=4 * self.PERIOD)
        router.stop()
        assert len(encodes) == 1
        assert self.updates_sent(network) == network.graph.degree(0) == 3
