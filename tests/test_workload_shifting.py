"""Tests for the shifting-popularity workload extension."""

import random

import pytest

from repro.overlay import P2PNetwork
from repro.sim import SimulationConfig
from repro.workload import ShiftingZipfWorkload, ZipfSampler


def make_network(seed=5, rate=0.05):
    config = SimulationConfig.small(seed=seed).replace(query_rate_per_peer=rate)
    return P2PNetwork.build(config)


class TestSamplerReshuffle:
    def test_reshuffle_changes_assignment(self):
        sampler = ZipfSampler(100, 1.0, random.Random(3))
        before = sampler.item_at_rank(1)
        # With 100 items the chance the top item survives one shuffle
        # is 1%; try a few shuffles to make flakiness negligible.
        changed = False
        for _ in range(5):
            sampler.reshuffle()
            if sampler.item_at_rank(1) != before:
                changed = True
                break
        assert changed

    def test_reshuffle_preserves_skew(self):
        sampler = ZipfSampler(50, 1.0, random.Random(3))
        p1 = sampler.probability_of_rank(1)
        sampler.reshuffle()
        assert sampler.probability_of_rank(1) == p1

    def test_reshuffle_keeps_permutation_valid(self):
        sampler = ZipfSampler(30, 1.0, random.Random(3))
        sampler.reshuffle()
        items = {sampler.item_at_rank(r) for r in range(1, 31)}
        assert items == set(range(30))


class TestShiftingWorkload:
    def test_shifts_happen_on_schedule(self):
        network = make_network()
        # max_queries high enough that generation outlasts the horizon
        # (shift re-arming stops once the workload completes).
        workload = ShiftingZipfWorkload(
            network, lambda *a: None, shift_interval_s=50.0, max_queries=10_000
        )
        workload.start()
        network.sim.run(until=175.0)
        assert workload.shifts == 3
        assert network.metrics.counter("workload.popularity_shifts").value == 3

    def test_queries_still_generated(self):
        network = make_network()
        workload = ShiftingZipfWorkload(
            network, lambda *a: None, shift_interval_s=20.0, max_queries=60
        )
        workload.start()
        network.sim.run(until=network.sim.now + 10_000.0)
        assert workload.generated == 60

    def test_popular_set_changes_after_shift(self):
        network = make_network(rate=0.2)
        issued = []
        workload = ShiftingZipfWorkload(
            network,
            lambda origin, fid, kws: issued.append(fid),
            shift_interval_s=400.0,
            max_queries=600,
        )
        workload.start()
        network.sim.run(until=network.sim.now + 100_000.0)
        assert workload.shifts >= 1
        # The most-queried file before the first shift should lose its
        # dominance afterwards (new hot set).
        before = [fid for fid in issued[:200]]
        after = [fid for fid in issued[-200:]]
        top_before = max(set(before), key=before.count)
        assert after.count(top_before) < before.count(top_before)

    def test_invalid_interval_rejected(self):
        network = make_network()
        with pytest.raises(ValueError):
            ShiftingZipfWorkload(network, lambda *a: None, shift_interval_s=0.0)

    def test_deterministic(self):
        def run(seed):
            network = make_network(seed=seed)
            issued = []
            workload = ShiftingZipfWorkload(
                network,
                lambda origin, fid, kws: issued.append((origin, fid)),
                shift_interval_s=50.0,
                max_queries=100,
            )
            workload.start()
            network.sim.run(until=network.sim.now + 100_000.0)
            return issued

        assert run(9) == run(9)


class TestRunnerIntegration:
    def test_run_protocol_with_shift(self):
        from repro.experiments import run_protocol, small_config
        from repro.scenarios import make_scenario

        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(
            config,
            "locaware",
            max_queries=60,
            bucket_width=30,
            scenario=make_scenario("popularity-shift", interval_s=200.0),
        )
        assert run.outcomes
        assert run.scenario_name == "popularity-shift"
        assert run.metric_snapshot.get("counter.workload.popularity_shifts", 0) >= 0

    def test_popularity_shift_ablation(self):
        from repro.experiments import small_config
        from repro.experiments.ablations import ablate_popularity_shift

        base = small_config(seed=13).replace(query_rate_per_peer=0.02)
        result = ablate_popularity_shift(
            base,
            max_queries=60,
            shift_intervals=(None, 100.0),
            protocols=("locaware",),
        )
        assert result.rows[0][0] == "stationary"
        assert result.rows[1][0] == 100.0
        for rate in result.column("locaware success"):
            assert 0.0 <= rate <= 1.0
