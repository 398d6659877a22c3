"""Unit tests for the latency models."""

import random

import pytest

from repro.net import EuclideanLatencyModel, Point, RouterLevelLatencyModel


class TestEuclideanModel:
    def test_same_point_gets_min_latency(self):
        model = EuclideanLatencyModel(10.0, 500.0)
        p = Point(0.3, 0.3)
        assert model.latency_ms(p, p) == pytest.approx(10.0)

    def test_opposite_corners_get_max_latency(self):
        model = EuclideanLatencyModel(10.0, 500.0)
        assert model.latency_ms(Point(0, 0), Point(1, 1)) == pytest.approx(500.0)

    def test_latencies_in_paper_range(self):
        model = EuclideanLatencyModel(10.0, 500.0)
        rng = random.Random(1)
        for _ in range(200):
            a = Point(rng.random(), rng.random())
            b = Point(rng.random(), rng.random())
            latency = model.latency_ms(a, b)
            assert 10.0 <= latency <= 500.0

    def test_rtt_is_twice_one_way(self):
        model = EuclideanLatencyModel(10.0, 500.0)
        a, b = Point(0.1, 0.1), Point(0.8, 0.4)
        assert model.rtt_ms(a, b) == pytest.approx(2 * model.latency_ms(a, b))

    def test_symmetry(self):
        model = EuclideanLatencyModel()
        a, b = Point(0.2, 0.9), Point(0.7, 0.1)
        assert model.latency_ms(a, b) == model.latency_ms(b, a)

    def test_monotone_in_distance(self):
        model = EuclideanLatencyModel()
        origin = Point(0.0, 0.0)
        assert model.latency_ms(origin, Point(0.2, 0.0)) < model.latency_ms(
            origin, Point(0.6, 0.0)
        )

    def test_triangle_inequality(self):
        """Affine-in-distance with positive offset keeps the triangle inequality."""
        model = EuclideanLatencyModel()
        rng = random.Random(9)
        for _ in range(100):
            a, b, c = (Point(rng.random(), rng.random()) for _ in range(3))
            assert model.latency_ms(a, c) <= (
                model.latency_ms(a, b) + model.latency_ms(b, c) + 1e-9
            )

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            EuclideanLatencyModel(0.0, 100.0)
        with pytest.raises(ValueError):
            EuclideanLatencyModel(100.0, 10.0)


class TestRouterLevelModel:
    @pytest.fixture(scope="class")
    def model(self):
        return RouterLevelLatencyModel(random.Random(7), num_routers=24)

    def test_latency_positive_and_bounded(self, model):
        """The documented [min, max] contract holds end to end: the
        last-mile links are folded into the rescaled backbone span, so
        the worst pair reads exactly max, not max + 2*last_mile."""
        rng = random.Random(11)
        for _ in range(50):
            a = Point(rng.random(), rng.random())
            b = Point(rng.random(), rng.random())
            latency = model.latency_ms(a, b)
            assert latency >= model.min_latency_ms
            assert latency <= model.max_latency_ms

    def test_worst_router_pair_reads_exactly_max(self, model):
        """Two peers attached to the endpoints of the longest backbone
        path measure max_latency_ms (up to float rounding)."""
        import math

        longest = max(
            d for row in model._dist for d in row if math.isfinite(d)  # noqa: SLF001
        )
        expected_worst = (
            model.min_latency_ms + 2.0 * model.last_mile_ms + longest
        )
        assert expected_worst == pytest.approx(model.max_latency_ms)

    def test_degenerate_range_clamps_span_to_zero(self):
        """If the access links alone exhaust [min, max], the backbone
        contributes nothing rather than pushing past max."""
        model = RouterLevelLatencyModel(
            random.Random(5),
            num_routers=8,
            min_latency_ms=10.0,
            max_latency_ms=15.0,
            last_mile_ms=5.0,
        )
        rng = random.Random(6)
        for _ in range(30):
            a = Point(rng.random(), rng.random())
            b = Point(rng.random(), rng.random())
            assert model.latency_ms(a, b) == pytest.approx(
                model.min_latency_ms + 2.0 * model.last_mile_ms
            )

    def test_symmetry(self, model):
        a, b = Point(0.05, 0.10), Point(0.95, 0.90)
        assert model.latency_ms(a, b) == pytest.approx(model.latency_ms(b, a))

    def test_same_point_pays_access_links(self, model):
        p = Point(0.4, 0.4)
        assert model.latency_ms(p, p) == pytest.approx(
            model.min_latency_ms + 2 * model.last_mile_ms
        )

    def test_nearest_router_is_nearest(self, model):
        p = Point(0.31, 0.62)
        idx = model.nearest_router(p)
        # Exhaustive check against every router.
        best = min(
            range(model.num_routers),
            key=lambda i: model._routers[i].distance_to(p),  # noqa: SLF001 - test introspection
        )
        assert idx == best

    def test_nearest_router_tie_goes_to_the_first(self):
        # A point sitting on a router is at distance 0 from it; a copy of
        # that router later in the list ties and must not win.
        model = RouterLevelLatencyModel(random.Random(7), num_routers=8)
        twin = model._routers[5]  # noqa: SLF001 - test introspection
        model._routers.append(twin)  # noqa: SLF001
        assert model.nearest_router(twin) == 5

    def test_connectivity_no_infinite_latency(self, model):
        rng = random.Random(13)
        for _ in range(100):
            a = Point(rng.random(), rng.random())
            b = Point(rng.random(), rng.random())
            assert model.latency_ms(a, b) < float("inf")

    def test_deterministic_for_seed(self):
        m1 = RouterLevelLatencyModel(random.Random(3), num_routers=16)
        m2 = RouterLevelLatencyModel(random.Random(3), num_routers=16)
        a, b = Point(0.2, 0.2), Point(0.9, 0.3)
        assert m1.latency_ms(a, b) == m2.latency_ms(a, b)

    def test_invalid_params_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            RouterLevelLatencyModel(rng, num_routers=1)
        with pytest.raises(ValueError):
            RouterLevelLatencyModel(rng, alpha=0.0)
        with pytest.raises(ValueError):
            RouterLevelLatencyModel(rng, beta=-1.0)
