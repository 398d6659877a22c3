"""Unit tests for the churn process."""

import pytest

from repro.overlay import ChurnProcess, P2PNetwork
from repro.sim import SimulationConfig


def make_network(seed=5):
    return P2PNetwork.build(SimulationConfig.small(seed=seed))


class TestChurn:
    def test_peers_leave_over_time(self):
        network = make_network()
        churn = ChurnProcess(network, 100.0, 50.0, network.streams.stream("churn"))
        churn.start()
        network.sim.run(until=50.0)
        assert churn.departures > 0

    def test_departed_peers_are_marked_dead_and_unlinked(self):
        network = make_network()
        churn = ChurnProcess(network, 50.0, 1e9, network.streams.stream("churn"))
        churn.start()
        network.sim.run(until=200.0)
        dead = [p for p in network.peers if not p.alive]
        assert dead
        for peer in dead:
            assert not network.graph.contains(peer.peer_id)

    def test_departure_clears_soft_state_keeps_files(self):
        network = make_network()
        target = network.peer(0)
        target.protocol_state["x"] = 1
        files_before = target.store.file_ids()
        churn = ChurnProcess(network, 10.0, 1e9, network.streams.stream("churn"))
        churn.start()
        network.sim.run(until=500.0)
        assert not target.alive
        assert target.protocol_state == {}
        assert target.store.file_ids() == files_before

    def test_rejoin_restores_membership_with_fresh_links(self):
        network = make_network()
        churn = ChurnProcess(network, 20.0, 20.0, network.streams.stream("churn"))
        churn.start()
        network.sim.run(until=500.0)
        assert churn.rejoins > 0
        for peer in network.peers:
            if peer.alive:
                assert network.graph.contains(peer.peer_id)

    def test_session_means_validated(self):
        network = make_network()
        with pytest.raises(ValueError):
            ChurnProcess(network, 0.0, 10.0, network.streams.stream("churn"))
        with pytest.raises(ValueError):
            ChurnProcess(network, 10.0, -1.0, network.streams.stream("churn"))

    def test_deterministic_for_seed(self):
        def run(seed):
            network = make_network(seed=seed)
            churn = ChurnProcess(network, 30.0, 30.0, network.streams.stream("churn"))
            churn.start()
            network.sim.run(until=200.0)
            return churn.departures, churn.rejoins, [p.alive for p in network.peers]

        assert run(8) == run(8)
