"""Unit tests for the Underlay facade."""

import random

import pytest
from reference_latency import scan_latency_ms, scan_rtt_ms

from repro.net import (
    EuclideanLatencyModel,
    LandmarkSet,
    Point,
    RouterLevelLatencyModel,
    Underlay,
)


@pytest.fixture(scope="module")
def underlay():
    return Underlay.build(200, random.Random(42))


class TestBuild:
    def test_num_peers(self, underlay):
        assert underlay.num_peers == 200

    def test_default_landmarks(self, underlay):
        assert underlay.landmarks.count == 4

    def test_deterministic_for_seed(self):
        a = Underlay.build(50, random.Random(9))
        b = Underlay.build(50, random.Random(9))
        assert all(a.locid_of(i) == b.locid_of(i) for i in range(50))
        assert a.latency_ms(0, 1) == b.latency_ms(0, 1)

    def test_uniform_placement_option(self):
        u = Underlay.build(50, random.Random(9), clustered=False)
        assert u.num_peers == 50

    def test_custom_model(self):
        model = EuclideanLatencyModel(20.0, 100.0)
        u = Underlay.build(20, random.Random(1), model=model)
        for i in range(1, 20):
            assert 20.0 <= u.latency_ms(0, i) <= 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Underlay([], EuclideanLatencyModel(), None)  # type: ignore[arg-type]

    def test_landmarks_on_another_model_rejected(self):
        # The locIds come from the one placement bound on ``model``; a
        # landmark set probing through a different model would be ignored.
        model = EuclideanLatencyModel()
        landmarks = LandmarkSet.place_spread(4, EuclideanLatencyModel())
        with pytest.raises(ValueError, match="share"):
            Underlay([Point(0.5, 0.5)], model, landmarks)


class TestQueries:
    def test_latency_in_paper_range(self, underlay):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.randrange(200), rng.randrange(200)
            if a == b:
                continue
            assert 10.0 <= underlay.latency_ms(a, b) <= 500.0

    def test_latency_symmetric(self, underlay):
        assert underlay.latency_ms(3, 77) == underlay.latency_ms(77, 3)

    def test_rtt_is_double_latency(self, underlay):
        assert underlay.rtt_ms(3, 77) == pytest.approx(2 * underlay.latency_ms(3, 77))

    def test_latency_s_converts_units(self):
        """The seconds closure is the milliseconds latency over 1000, bit
        for bit, for every pair on both models."""
        for model in _models(42):
            underlay = Underlay.build(60, random.Random(42), model=model)
            for a in range(60):
                for b in range(60):
                    assert underlay.latency_s(a, b) == underlay.latency_ms(a, b) / 1000

    def test_locids_in_range(self, underlay):
        for i in range(200):
            assert 0 <= underlay.locid_of(i) < 24

    def test_locid_histogram_sums_to_population(self, underlay):
        assert sum(underlay.locid_histogram().values()) == 200

    def test_mean_peers_per_locid(self, underlay):
        histogram = underlay.locid_histogram()
        expected = 200 / len(histogram)
        assert underlay.mean_peers_per_locid() == pytest.approx(expected)

    def test_locality_moreparsimonious_than_random(self, underlay):
        """Same-locId peers must on average be physically closer than random pairs."""
        rng = random.Random(17)
        by_locid = {}
        for i in range(200):
            by_locid.setdefault(underlay.locid_of(i), []).append(i)
        same_pairs = []
        for members in by_locid.values():
            for i in range(len(members) - 1):
                same_pairs.append((members[i], members[i + 1]))
        if not same_pairs:
            pytest.skip("degenerate layout: no locId with two peers")
        same = sum(underlay.rtt_ms(a, b) for a, b in same_pairs) / len(same_pairs)
        random_pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(500)]
        rand = sum(underlay.rtt_ms(a, b) for a, b in random_pairs) / len(random_pairs)
        assert same < rand


class CountingRouterModel(RouterLevelLatencyModel):
    """Counts the O(R) nearest-router scans."""

    scans = 0

    def nearest_router(self, p):
        self.scans += 1
        return super().nearest_router(p)


def _models(seed):
    return [
        EuclideanLatencyModel(),
        RouterLevelLatencyModel(random.Random(seed + 100)),
    ]


class TestAttachment:
    def test_every_peer_and_landmark_is_attached_exactly_once(self):
        model = CountingRouterModel(random.Random(3))
        underlay = Underlay.build(150, random.Random(4), num_landmarks=4, model=model)
        assert model.scans == 150 + 4
        # Neither locIds nor bound latencies scan again.
        for peer in range(150):
            underlay.locid_of(peer)
            underlay.latency_ms(peer, (peer + 1) % 150)
        assert model.scans == 150 + 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_locids_and_latencies_equal_the_reference_paths(self, seed):
        """The shared placement changes nothing: locIds are what the
        landmark set computes from a position, latencies what the model
        computes per call."""
        for model in _models(seed):
            underlay = Underlay.build(80, random.Random(seed), model=model)
            for peer in range(80):
                position = underlay.position_of(peer)
                assert underlay.locid_of(peer) == underlay.landmarks.locid_of(position)
            rng = random.Random(seed + 7)
            for _ in range(400):
                a, b = rng.randrange(80), rng.randrange(80)
                assert underlay.latency_ms(a, b) == scan_latency_ms(underlay, a, b)
                assert underlay.rtt_ms(a, b) == scan_rtt_ms(underlay, a, b)
