"""Unit tests for the Poisson query workload generator."""

import pytest

from repro.overlay import P2PNetwork
from repro.sim import SimulationConfig
from repro.workload import QueryWorkload, TraceRecorder


def make_network(seed=5, rate=0.05):
    config = SimulationConfig.small(seed=seed).replace(query_rate_per_peer=rate)
    return P2PNetwork.build(config)


def run_workload(network, max_queries):
    """The finished workload and the arrivals it issued, in order."""
    issued = []
    recorder = TraceRecorder(
        network, lambda origin, fid, kws: issued.append((origin, fid, kws))
    )
    workload = QueryWorkload(network, recorder, max_queries=max_queries)
    workload.start()
    network.sim.run()
    return workload, issued, recorder.events


class TestGeneration:
    def test_generates_exactly_max_queries(self):
        network = make_network()
        workload, issued, _ = run_workload(network, 50)
        assert workload.generated == 50
        assert len(issued) == 50

    def test_recorded_events_match_issued(self):
        network = make_network()
        _, issued, events = run_workload(network, 30)
        assert len(events) == 30
        for event, (origin, fid, kws) in zip(events, issued):
            assert event.origin == origin
            assert event.file_id == fid
            assert event.keywords == kws

    def test_recorded_indices_are_sequential(self):
        network = make_network()
        _, _, events = run_workload(network, 20)
        assert [e.index for e in events] == list(range(1, 21))

    def test_times_are_increasing(self):
        network = make_network()
        _, _, events = run_workload(network, 40)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_keywords_come_from_target_filename(self):
        network = make_network()
        _, issued, _ = run_workload(network, 60)
        for _origin, fid, kws in issued:
            file_keywords = network.catalog.keywords(fid)
            assert 1 <= len(kws) <= 3
            assert all(kw in file_keywords for kw in kws)

    def test_keywords_sorted_and_distinct(self):
        network = make_network()
        _, issued, _ = run_workload(network, 60)
        for _origin, _fid, kws in issued:
            assert list(kws) == sorted(set(kws))

    def test_origins_are_valid_alive_peers(self):
        network = make_network()
        _, issued, _ = run_workload(network, 60)
        for origin, _fid, _kws in issued:
            assert 0 <= origin < network.config.num_peers

    def test_deterministic_across_protocol_runs(self):
        """Same seed ⇒ identical query stream (the comparison fairness
        guarantee)."""
        net_a = make_network(seed=9)
        net_b = make_network(seed=9)
        _, issued_a, _ = run_workload(net_a, 40)
        _, issued_b, _ = run_workload(net_b, 40)
        assert issued_a == issued_b

    def test_mean_rate_approximates_config(self):
        """Inter-arrival mean ≈ 1 / (num_peers × per-peer rate)."""
        network = make_network(seed=3, rate=0.01)
        _, _, events = run_workload(network, 300)
        times = [e.time for e in events]
        gaps = [b - a for a, b in zip(times, times[1:])]
        expected = 1.0 / (network.config.num_peers * 0.01)
        observed = sum(gaps) / len(gaps)
        assert observed == pytest.approx(expected, rel=0.25)

    def test_dead_peers_never_chosen(self):
        network = make_network(seed=13)
        for pid in range(0, network.config.num_peers, 2):
            network.peer(pid).alive = False
        _, issued, _ = run_workload(network, 50)
        for origin, _fid, _kws in issued:
            assert network.peer(origin).alive

    def test_zipf_popularity_shows_in_queries(self):
        network = make_network(seed=17, rate=0.05)
        workload, issued, _ = run_workload(network, 400)
        top = workload.sampler.item_at_rank(1)
        top_queries = sum(1 for _o, fid, _k in issued if fid == top)
        # Rank 1 of 180 files at s=1: p ≈ 0.17; uniform would be 1/180.
        assert top_queries / 400 > 5 / 180
