"""The physical underlay: peer positions, RTT queries, locIds.

:class:`Underlay` ties together coordinates, a latency model, and a
landmark set.  It answers the three questions the rest of the system
asks about the physical network:

- What is the one-way latency / RTT between peers ``a`` and ``b``?
  (message timing, download distance, RTT probes);
- What is peer ``n``'s locId?  (location-aware indexes);
- Where are the landmarks?  (diagnostics).

The underlay is immutable after construction; churn operates purely at
the overlay level (a peer that leaves keeps its coordinates for when it
returns, like a host keeping its physical location).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .coordinates import Point, clustered_points, random_points
from .landmarks import LandmarkSet
from .latency import EuclideanLatencyModel, LatencyModel, PairLatency

__all__ = ["Underlay"]


class Underlay:
    """Physical positions and latencies for a set of peers.

    Parameters
    ----------
    positions:
        One coordinate per peer; peer ids are the list indices.
    model:
        Latency model shared with the landmark set.
    landmarks:
        The deployed landmark machines.  They must probe through
        ``model`` itself (``landmarks.model is model``): the locIds are
        computed from the one placement bound for the peers.
    """

    #: ``latency_s(a, b)``: one-way latency between peers ``a`` and ``b``
    #: in seconds.  Each underlay holds the seconds closure its model
    #: binds (bit-identical to ``latency_ms(a, b) / 1000.0``, one frame
    #: per call); message delivery resolves it once per network.  The
    #: class-level ``None`` only declares the name, so tools that wrap
    #: class members (``bench/layertrace.py``) find it.
    latency_s: PairLatency = None  # type: ignore[assignment]

    def __init__(
        self,
        positions: Sequence[Point],
        model: LatencyModel,
        landmarks: LandmarkSet,
    ) -> None:
        if not positions:
            raise ValueError("an underlay needs at least one peer position")
        if landmarks.model is not model:
            raise ValueError("the landmark set must share the underlay's latency model")
        self._positions = list(positions)
        self._model = model
        self._landmarks = landmarks
        # Per-message hot path: bound closures over precomputed state
        # (flat coordinates / router attachment + flat distance table)
        # instead of per-call scans.  Bit-identical to the scan path.
        # The landmarks are bound as extra points behind the peers, so
        # the one placement serves the locId probes too and the router
        # model attaches every peer and every landmark exactly once.
        num_peers = len(self._positions)
        pair_latency, self.latency_s = model.bind(
            self._positions + landmarks.positions
        )
        landmark_points = range(num_peers, num_peers + landmarks.count)
        self._locids: list[int] = [
            landmarks.locid_from_rtts(
                [2.0 * pair_latency(p, lm) for lm in landmark_points]
            )
            for p in range(num_peers)
        ]
        self._pair_latency = pair_latency

    # -- construction helpers ---------------------------------------------

    @classmethod
    def build(
        cls,
        num_peers: int,
        rng: random.Random,
        min_latency_ms: float = 10.0,
        max_latency_ms: float = 500.0,
        num_landmarks: int = 4,
        clustered: bool = True,
        model: LatencyModel | None = None,
    ) -> Underlay:
        """Construct the paper's underlay.

        Peers are placed in the unit square (clustered by default — see
        :func:`repro.net.coordinates.clustered_points`), latencies follow
        the BRITE-inspired 10–500 ms Euclidean model unless an explicit
        ``model`` is supplied, and landmarks are spread deterministically.
        """
        if model is None:
            model = EuclideanLatencyModel(min_latency_ms, max_latency_ms)
        if clustered:
            positions = clustered_points(num_peers, rng)
        else:
            positions = random_points(num_peers, rng)
        landmarks = LandmarkSet.place_spread(num_landmarks, model)
        return cls(positions, model, landmarks)

    # -- queries -------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of peers placed on this underlay."""
        return len(self._positions)

    @property
    def landmarks(self) -> LandmarkSet:
        """The landmark deployment."""
        return self._landmarks

    @property
    def model(self) -> LatencyModel:
        """The latency model in use."""
        return self._model

    def position_of(self, peer_id: int) -> Point:
        """Coordinates of ``peer_id``."""
        return self._positions[peer_id]

    def locid_of(self, peer_id: int) -> int:
        """The locId ``peer_id`` computed at arrival (§4.1.1)."""
        return self._locids[peer_id]

    def latency_ms(self, a: int, b: int) -> float:
        """One-way latency between peers ``a`` and ``b`` in milliseconds."""
        return self._pair_latency(a, b)

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time between peers ``a`` and ``b`` in milliseconds."""
        return 2.0 * self._pair_latency(a, b)

    def locid_histogram(self) -> dict[int, int]:
        """How many peers share each locId (diagnostic for §5.1's
        landmark-count discussion)."""
        histogram: dict[int, int] = {}
        for locid in self._locids:
            histogram[locid] = histogram.get(locid, 0) + 1
        return histogram

    def mean_peers_per_locid(self) -> float:
        """Average population of the non-empty locIds."""
        histogram = self.locid_histogram()
        return len(self._locids) / len(histogram) if histogram else 0.0
