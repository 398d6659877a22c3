"""Landmark-based locality ids (locIds), as in §4.1.1 of the paper.

A small set of well-known machines ("landmarks") is spread across the
network.  Each peer measures its RTT to every landmark and orders the
landmark set by increasing RTT; physically close peers tend to produce
the same ordering.  Each possible ordering — a permutation of the
landmark indices — is assigned a locId, so ``k`` landmarks yield ``k!``
possible locIds (4 landmarks → 24 locIds, the paper's default; 5 →
120, which §5.1 argues scatters 1000 peers too thinly).

The permutation ↔ integer mapping uses the Lehmer code (factorial
number system), a bijection between permutations of ``k`` elements and
``range(k!)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .coordinates import Point
from .latency import LatencyModel

__all__ = [
    "permutation_to_locid",
    "locid_to_permutation",
    "rtt_ordering",
    "LandmarkSet",
]


def permutation_to_locid(permutation: Sequence[int]) -> int:
    """Rank a permutation of ``range(k)`` into ``range(k!)`` (Lehmer code).

    >>> permutation_to_locid([0, 1, 2])
    0
    >>> permutation_to_locid([2, 1, 0])
    5
    """
    k = len(permutation)
    if sorted(permutation) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {list(permutation)!r}")
    remaining = list(range(k))
    rank = 0
    for i, value in enumerate(permutation):
        position = remaining.index(value)
        rank += position * math.factorial(k - 1 - i)
        remaining.pop(position)
    return rank


def locid_to_permutation(locid: int, k: int) -> list[int]:
    """Inverse of :func:`permutation_to_locid` for ``k`` landmarks.

    >>> locid_to_permutation(5, 3)
    [2, 1, 0]
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0 <= locid < math.factorial(k)):
        raise ValueError(f"locid {locid} out of range for {k} landmarks")
    remaining = list(range(k))
    permutation: list[int] = []
    for i in range(k):
        base = math.factorial(k - 1 - i)
        position, locid = divmod(locid, base)
        permutation.append(remaining.pop(position))
    return permutation


def rtt_ordering(rtts: Sequence[float]) -> list[int]:
    """Landmark indices ordered by increasing RTT.

    Ties are broken by landmark index (the sort is stable), which keeps
    the ordering deterministic (two peers with identical RTT vectors
    always agree).
    """
    return sorted(range(len(rtts)), key=rtts.__getitem__)


@lru_cache(maxsize=1024)
def _ordering_locid(ordering: tuple[int, ...]) -> int:
    """The locId of a landmark ordering, ranked once per distinct ordering:
    a population produces at most ``k!`` of them (24 for the paper's 4,
    120 for §5.1's 5; bounded because 9 landmarks could produce 362 880)."""
    return permutation_to_locid(ordering)


class LandmarkSet:
    """The deployed landmarks plus the locId computation.

    Parameters
    ----------
    positions:
        Landmark coordinates.  Use :meth:`place_spread` to create them.
    model:
        The latency model used for a peer's RTT measurements.
    """

    def __init__(self, positions: Sequence[Point], model: LatencyModel) -> None:
        if not positions:
            raise ValueError("at least one landmark is required")
        self._positions = list(positions)
        self._model = model

    @classmethod
    def place_spread(cls, count: int, model: LatencyModel) -> LandmarkSet:
        """Place landmarks deterministically, maximally spread out.

        The first four go to the square's corners, the fifth to the
        centre, further ones to edge midpoints — a reasonable stand-in
        for "well-known machines spread across the Internet".
        """
        anchor_layout = [
            Point(0.0, 0.0),
            Point(1.0, 1.0),
            Point(0.0, 1.0),
            Point(1.0, 0.0),
            Point(0.5, 0.5),
            Point(0.5, 0.0),
            Point(0.5, 1.0),
            Point(0.0, 0.5),
            Point(1.0, 0.5),
        ]
        if count > len(anchor_layout):
            raise ValueError(
                f"place_spread supports at most {len(anchor_layout)} landmarks, got {count}"
            )
        return cls(anchor_layout[:count], model)

    @property
    def count(self) -> int:
        """Number of landmarks."""
        return len(self._positions)

    @property
    def num_locids(self) -> int:
        """Number of distinct locIds = count!."""
        return math.factorial(len(self._positions))

    @property
    def positions(self) -> list[Point]:
        """Copies of the landmark coordinates."""
        return list(self._positions)

    @property
    def model(self) -> LatencyModel:
        """The latency model the RTT probes go through."""
        return self._model

    def measure_rtts(self, peer_position: Point) -> list[float]:
        """A peer's RTT (ms) to each landmark, in landmark order."""
        return [self._model.rtt_ms(peer_position, lm) for lm in self._positions]

    @staticmethod
    def locid_from_rtts(rtts: Sequence[float]) -> int:
        """The locId of a peer that measured ``rtts``, in landmark order."""
        return _ordering_locid(tuple(rtt_ordering(rtts)))

    def locid_of(self, peer_position: Point) -> int:
        """The locId a peer at ``peer_position`` computes on arrival."""
        return self.locid_from_rtts(self.measure_rtts(peer_position))

    def locid_with_rtts(self, peer_position: Point) -> tuple[int, list[float]]:
        """locId together with the raw RTT vector (for diagnostics)."""
        rtts = self.measure_rtts(peer_position)
        return self.locid_from_rtts(rtts), rtts
