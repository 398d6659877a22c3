"""Tests for the substrate configuration knobs (latency model, placement)."""

import pytest

from repro.overlay import P2PNetwork
from repro.sim import ConfigurationError, SimulationConfig


class TestConfigValidation:
    def test_defaults(self):
        config = SimulationConfig.paper_defaults()
        assert config.latency_model == "euclidean"
        assert config.peer_placement == "clustered"

    def test_invalid_latency_model_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(latency_model="quantum")

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(peer_placement="lattice")


class TestNetworkBuild:
    def test_router_model_builds_and_bounds_latency(self):
        config = SimulationConfig.small(seed=3).replace(latency_model="router")
        network = P2PNetwork.build(config)
        for a, b in [(0, 1), (5, 20), (10, 40)]:
            latency = network.underlay.latency_ms(a, b)
            assert latency >= config.min_latency_ms
            # router paths include last-mile links on top of the range
            assert latency <= config.max_latency_ms + 50.0

    def test_uniform_placement_builds(self):
        config = SimulationConfig.small(seed=3).replace(peer_placement="uniform")
        network = P2PNetwork.build(config)
        assert network.underlay.num_peers == config.num_peers

    def test_substrates_change_the_latency_structure(self):
        base = SimulationConfig.small(seed=3)
        euclid = P2PNetwork.build(base)
        router = P2PNetwork.build(base.replace(latency_model="router"))
        pairs = [(0, 1), (2, 30), (10, 50)]
        assert any(
            euclid.underlay.latency_ms(a, b) != router.underlay.latency_ms(a, b)
            for a, b in pairs
        )

    def test_router_model_deterministic(self):
        config = SimulationConfig.small(seed=5).replace(latency_model="router")
        a = P2PNetwork.build(config)
        b = P2PNetwork.build(config)
        assert a.underlay.latency_ms(0, 10) == b.underlay.latency_ms(0, 10)

    def test_protocols_run_on_router_substrate(self):
        from repro.experiments import run_protocol

        config = SimulationConfig.small(seed=3).replace(
            latency_model="router", query_rate_per_peer=0.02
        )
        run = run_protocol(config, "locaware", max_queries=40, bucket_width=20)
        assert run.outcomes

    def test_substrate_ablation_small(self):
        import dataclasses

        from repro.experiments import small_config
        from repro.experiments.ablations import ABLATIONS, run_ablation

        base = small_config(seed=13).replace(query_rate_per_peer=0.02)
        entry = dataclasses.replace(ABLATIONS["a8"], protocols=("locaware",))
        result = run_ablation(entry, base, 40)
        assert len(result.rows) == 4
        assert result.column("substrate")[0] == "euclidean/clustered"
