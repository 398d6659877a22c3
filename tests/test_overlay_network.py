"""Unit tests for the assembled P2PNetwork."""

import pytest

from repro.overlay import P2PNetwork
from repro.sim import SimulationConfig


@pytest.fixture(scope="module")
def network():
    return P2PNetwork.build(SimulationConfig.small(seed=3))


class TestBuild:
    def test_population(self, network):
        config = network.config
        assert len(network.peers) == config.num_peers
        assert network.graph.num_peers == config.num_peers
        assert network.underlay.num_peers == config.num_peers

    def test_initial_shares(self, network):
        for peer in network.peers:
            assert peer.store.size == network.config.files_per_peer

    def test_gids_in_range(self, network):
        for peer in network.peers:
            assert 0 <= peer.gid < network.config.group_count

    def test_locids_match_underlay(self, network):
        for peer in network.peers:
            assert peer.locid == network.underlay.locid_of(peer.peer_id)

    def test_deterministic_build(self):
        a = P2PNetwork.build(SimulationConfig.small(seed=9))
        b = P2PNetwork.build(SimulationConfig.small(seed=9))
        assert [p.gid for p in a.peers] == [p.gid for p in b.peers]
        assert [sorted(p.store.file_ids()) for p in a.peers] == [
            sorted(p.store.file_ids()) for p in b.peers
        ]
        assert a.graph.neighbors(0) == b.graph.neighbors(0)

    def test_different_seeds_differ(self):
        a = P2PNetwork.build(SimulationConfig.small(seed=1))
        b = P2PNetwork.build(SimulationConfig.small(seed=2))
        same_shares = [sorted(p.store.file_ids()) for p in a.peers] == [
            sorted(p.store.file_ids()) for p in b.peers
        ]
        assert not same_shares


class TestMessaging:
    def test_send_delivers_after_latency(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        received = []
        network.send(0, (1,), lambda dst, msg: received.append((dst, msg, network.sim.now)), "hello")
        network.sim.run()
        assert len(received) == 1
        dst, msg, at = received[0]
        assert dst == 1
        assert msg == "hello"
        assert at == network.underlay.latency_ms(0, 1) / 1000.0

    def test_send_counts_messages(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.send(0, (1,), lambda *a: None, "x", kind="query")
        assert network.metrics.counter("messages.query").value == 1
        assert network.metrics.counter("messages.total").value == 1

    def test_send_attributes_to_query(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.send(0, (1,), lambda *a: None, "x", query_id=77)
        network.send(1, (2,), lambda *a: None, "x", query_id=77)
        assert network.query_message_count(77) == 2

    def test_forget_query_messages_pops(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.send(0, (1,), lambda *a: None, "x", query_id=5)
        assert network.forget_query_messages(5) == 1
        assert network.query_message_count(5) == 0

    def test_charge_query_messages(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.charge_query_messages(9, 4)
        assert network.query_message_count(9) == 4
        with pytest.raises(ValueError):
            network.charge_query_messages(9, -1)

    def test_dead_peer_drops_delivery_but_counts_send(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.peer(1).alive = False
        received = []
        network.send(0, (1,), lambda dst, msg: received.append(msg), "x")
        network.sim.run()
        assert received == []
        assert network.metrics.counter("messages.total").value == 1
        assert network.metrics.counter("messages.dropped_dead_peer").value == 1

    def test_alive_peer_ids_reflects_churn_flag(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.peer(2).alive = False
        alive = network.alive_peer_ids()
        assert 2 not in alive
        assert len(alive) == network.config.num_peers - 1

    def test_rtt_probe_counts_and_charges(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        rtts = network.rtt_probe_ms(0, [1, 2], query_id=3)
        assert set(rtts) == {1, 2}
        assert rtts[1] == pytest.approx(network.underlay.rtt_ms(0, 1))
        assert network.metrics.counter("messages.rtt_probe").value == 4
        assert network.query_message_count(3) == 4


class TestMessagingEdges:
    """Edge cases of the message accounting (per-query tallies, dead
    peers, probe charging)."""

    def test_charge_query_messages_rejects_negative_and_leaves_tally(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.charge_query_messages(9, 4)
        with pytest.raises(ValueError, match="non-negative"):
            network.charge_query_messages(9, -3)
        assert network.query_message_count(9) == 4

    def test_charge_query_messages_zero_is_a_noop_count(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.charge_query_messages(9, 0)
        assert network.query_message_count(9) == 0

    def test_drop_is_decided_at_delivery_time_not_send_time(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        received = []
        # Alive at send, dead at arrival: dropped and accounted.
        network.send(0, (1,), lambda dst, msg: received.append(msg), "late")
        network.peer(1).alive = False
        network.sim.run()
        assert received == []
        assert network.metrics.counter("messages.dropped_dead_peer").value == 1
        # Dead at send, alive at arrival: delivered, no drop counted.
        network.peer(2).alive = False
        network.send(0, (2,), lambda dst, msg: received.append(msg), "early")
        network.peer(2).alive = True
        network.sim.run()
        assert received == ["early"]
        assert network.metrics.counter("messages.dropped_dead_peer").value == 1

    def test_dropped_deliveries_accumulate_per_dead_destination(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.peer(1).alive = False
        network.peer(2).alive = False
        for dst in (1, 2, 1):
            network.send(0, (dst,), lambda *a: None, "x")
        network.sim.run()
        assert network.metrics.counter("messages.dropped_dead_peer").value == 3
        assert network.metrics.counter("messages.total").value == 3

    def test_rtt_probe_charges_two_messages_per_candidate(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        candidates = [1, 2, 3, 4, 5]
        network.rtt_probe_ms(0, candidates, query_id=3)
        assert network.query_message_count(3) == 2 * len(candidates)
        assert network.metrics.counter("messages.rtt_probe").value == 2 * len(
            candidates
        )
        assert network.metrics.counter("messages.total").value == 2 * len(candidates)

    def test_rtt_probe_without_query_id_counts_but_does_not_charge(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.rtt_probe_ms(0, [1, 2])
        assert network.metrics.counter("messages.rtt_probe").value == 4
        assert network.query_message_count(0) == 0

    def test_rtt_probe_empty_candidates(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        assert network.rtt_probe_ms(0, [], query_id=3) == {}
        assert network.metrics.counter("messages.rtt_probe").value == 0
        assert network.query_message_count(3) == 0


class TestFanOut:
    """One ``send`` per fan-out: k destinations are k messages, counted
    at once and delivered one by one."""

    TARGETS = (5, 2, 5, 7)  # a repeated target makes equal arrival times

    def test_k_targets_count_k_on_both_counters_and_the_tally(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.send(0, self.TARGETS, lambda *a: None, "x", query_id=8, kind="query")
        network.send(3, (1,), lambda *a: None, "y", query_id=8, kind="query")
        counter = network.metrics.counter
        assert counter("messages.query").value == len(self.TARGETS) + 1
        assert counter("messages.total").value == len(self.TARGETS) + 1
        assert network.query_message_count(8) == len(self.TARGETS) + 1

    def test_delivers_in_target_order_at_now_plus_each_latency(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        network.sim.schedule(1.5, lambda: None)
        network.sim.run()
        received = []
        payload = object()
        network.send(
            0, self.TARGETS,
            lambda dst, msg: received.append((dst, msg, network.sim.now)), payload,
        )
        network.sim.run()
        expected = [
            (dst, payload, 1.5 + network.underlay.latency_ms(0, dst) / 1000.0)
            for dst in self.TARGETS
        ]
        # Stable: equal arrival times keep the order of the targets.
        assert received == sorted(expected, key=lambda arrival: arrival[2])
        assert [dst for dst, *_ in received].count(5) == 2

    def test_the_dead_at_arrival_drop_is_decided_per_target(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        received = []
        network.send(0, (1, 2, 3), lambda dst, msg: received.append(dst), "x")
        network.peer(2).alive = False
        network.sim.run()
        assert received == sorted(
            (1, 3), key=lambda dst: network.underlay.latency_ms(0, dst)
        )
        assert network.metrics.counter("messages.dropped_dead_peer").value == 1
        assert network.metrics.counter("messages.total").value == 3

    def test_an_empty_fan_out_touches_nothing(self):
        network = P2PNetwork.build(SimulationConfig.small(seed=4))
        before = network.metrics.snapshot()
        network.send(0, (), lambda *a: None, "x", query_id=4, kind="never_sent")
        network.send(0, [], lambda *a: None, "x")
        assert network.metrics.snapshot() == before
        assert "counter.messages.never_sent" not in network.metrics.snapshot()
        assert network.query_message_count(4) == 0
        assert 4 not in network._per_query_messages
        assert network.sim.pending_events == 0
        assert network.sim.queue_peak == 0
