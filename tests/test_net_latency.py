"""Unit tests for the latency models."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_worlds import world_config

from repro.net import EuclideanLatencyModel, Point, RouterLevelLatencyModel
from repro.overlay.blueprint import NetworkBlueprint


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
        assert idx == first_minimum_scan(model._routers, p)  # noqa: SLF001

    def test_nearest_router_tie_goes_to_the_first(self):
        # A point sitting on a router is at distance 0 from it; a copy of
        # that router later in the list ties and must not win.
        model = RouterLevelLatencyModel(random.Random(7), num_routers=8)
        twin = model._routers[5]  # noqa: SLF001 - test introspection
        model = with_routers([*model._routers, twin])  # noqa: SLF001
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


def first_minimum_scan(routers, p):
    """The oracle: every router's ``hypot(p - router)``, first minimum."""
    distances = [math.hypot(p.x - r.x, p.y - r.y) for r in routers]
    return distances.index(min(distances))


def with_routers(routers):
    """A router-level model whose routers sit at ``routers``, in order
    (only the attachment is meaningful; the backbone is the seed's)."""
    model = RouterLevelLatencyModel(random.Random(1), num_routers=2)
    model._routers = list(routers)  # noqa: SLF001 - test introspection
    model._sort_routers()  # noqa: SLF001
    return model


#: Coordinates on a 1/8 grid: differences are exact, so shared xs,
#: duplicate routers and equal-distance ties come up often.
grid_coordinate = st.integers(0, 8).map(lambda k: k / 8)
coordinate = st.one_of(grid_coordinate, st.floats(0.0, 1.0))
points = st.builds(Point, coordinate, coordinate)
CORNERS = [Point(0.0, 0.0), Point(0.0, 1.0), Point(1.0, 0.0), Point(1.0, 1.0)]


class TestNearestRouterMatchesTheScan:
    @settings(max_examples=300, deadline=None)
    @given(
        routers=st.lists(points, min_size=1, max_size=24),
        extra=st.lists(points, max_size=8),
    )
    def test_pruned_search_is_the_first_minimum(self, routers, extra):
        model = with_routers(routers)
        for p in [*routers, *CORNERS, *extra]:
            assert model.nearest_router(p) == first_minimum_scan(routers, p)

    def test_equal_distance_tie_goes_to_the_smaller_index(self):
        # (0.5, 0.5) is 0.25 from all four; the list is not in x order.
        routers = [
            Point(0.75, 0.5), Point(0.5, 0.25), Point(0.25, 0.5), Point(0.5, 0.75),
        ]
        model = with_routers(routers)
        assert model.nearest_router(Point(0.5, 0.5)) == 0
        assert model.nearest_router(Point(0.5, 0.5)) == first_minimum_scan(
            routers, Point(0.5, 0.5)
        )

    def test_every_attachment_of_a_6000_peer_world(self):
        world = NetworkBlueprint.build(world_config("router", 6000, 1))
        underlay = world.underlay
        model = underlay.model
        routers = model._routers  # noqa: SLF001 - test introspection
        placed = [underlay.position_of(pid) for pid in range(underlay.num_peers)]
        placed += underlay.landmarks.positions
        assert len(placed) == 6000 + underlay.landmarks.count
        assert [model.nearest_router(p) for p in placed] == [
            first_minimum_scan(routers, p) for p in placed
        ]
