"""Geometric placement of peers in a unit square.

The BRITE topology generator the paper references places routers on a
plane and derives link latencies from geometric distance.  We keep the
same idea: every peer gets a point in the unit square, and the latency
model (:mod:`repro.net.latency`) maps distances to the paper's 10–500 ms
range.  Placement in a metric space is what makes landmark RTT
orderings *meaningful*: peers that are close in the plane measure
similar RTT vectors and therefore share a locId.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["Point", "random_points", "clustered_points", "max_pairwise_distance"]


@dataclass(frozen=True, slots=True)
class Point:
    """A position in the unit square."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"Point must lie in the unit square, got ({self.x}, {self.y})")

    def distance_to(self, other: Point) -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        """The point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)


#: Largest possible distance between two points of the unit square.
UNIT_SQUARE_DIAMETER = math.sqrt(2.0)


def random_points(count: int, rng: random.Random) -> list[Point]:
    """Place ``count`` points uniformly at random in the unit square."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [Point(rng.random(), rng.random()) for _ in range(count)]


def clustered_points(
    count: int,
    rng: random.Random,
    num_clusters: int = 8,
    spread: float = 0.08,
) -> list[Point]:
    """Place points around random cluster centres (an AS-like layout).

    Internet hosts are not uniformly spread — they clump into networks
    and regions.  This generator draws ``num_clusters`` centres
    uniformly, then scatters each point around a random centre with a
    Gaussian of standard deviation ``spread`` (clamped to the square).
    Clustered layouts make locality ids informative: most clusters fall
    entirely inside one landmark ordering.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    centres = [(rng.random(), rng.random()) for _ in range(num_clusters)]
    # The cluster is random.Random.randrange(num_clusters) drawn inline:
    # the same getrandbits words in the same order
    # (tests/test_property_inline_draws.py pins it to the stdlib).
    getrandbits = rng.getrandbits
    bits = num_clusters.bit_length()
    points: list[Point] = []
    for _ in range(count):
        cluster = getrandbits(bits)
        while cluster >= num_clusters:
            cluster = getrandbits(bits)
        cx, cy = centres[cluster]
        x = min(1.0, max(0.0, rng.gauss(cx, spread)))
        y = min(1.0, max(0.0, rng.gauss(cy, spread)))
        points.append(Point(x, y))
    return points


def max_pairwise_distance(points: Sequence[Point]) -> float:
    """Exact maximum pairwise distance (O(n²); for tests and small sets)."""
    best = 0.0
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            d = p.distance_to(q)
            if d > best:
                best = d
    return best
