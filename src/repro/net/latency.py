"""Latency models mapping peer placement to link latencies.

The paper (§5.1) generates "an underlying topology of peers connected
with links of variable latencies; the model inspired by BRITE assigns
latencies between 10 and 500 ms".  Two models implement that contract:

- :class:`EuclideanLatencyModel` — one-way latency is an affine
  function of the distance between the two endpoints' coordinates,
  scaled into ``[min_latency, max_latency]``.  Fast (O(1) per query),
  respects the triangle inequality, and geographically coherent, which
  is exactly what landmark clustering (§4.1.1) needs.  This is the
  default model.

- :class:`RouterLevelLatencyModel` — a Waxman random graph over router
  nodes (the actual BRITE flat-router model) with per-edge latencies
  from edge length; peer-to-peer latency is the shortest-path latency
  through the router network.  Closer to BRITE's output, but O(V·E)
  to precompute; useful for validating that results do not depend on
  the metric-space simplification.

Latencies are returned in **milliseconds** and are *one-way*; RTTs are
twice the one-way latency (symmetric links).
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Callable, Sequence

from .coordinates import UNIT_SQUARE_DIAMETER, Point

__all__ = ["LatencyModel", "EuclideanLatencyModel", "RouterLevelLatencyModel"]

#: Fast pairwise latency over peer *indices*, produced by ``bind``.
PairLatency = Callable[[int, int], float]

#: What ``bind`` returns: the same latencies in milliseconds and in
#: seconds, ``seconds(a, b) == milliseconds(a, b) / 1000.0`` bit for bit.
BoundLatency = tuple[PairLatency, PairLatency]


class LatencyModel:
    """Interface: one-way latency in milliseconds between two points."""

    def latency_ms(self, a: Point, b: Point) -> float:
        """One-way latency between positions ``a`` and ``b``."""
        raise NotImplementedError

    def rtt_ms(self, a: Point, b: Point) -> float:
        """Round-trip time between ``a`` and ``b`` (symmetric links)."""
        return 2.0 * self.latency_ms(a, b)

    def bind(self, positions: Sequence[Point]) -> BoundLatency:
        """Fast ``(peer_a, peer_b) -> latency`` closures for a fixed peer
        placement: one in milliseconds, one in seconds.

        This is the per-message hot path: models override it to hoist
        whatever per-call work can be precomputed for a static underlay
        (coordinate unpacking, nearest-router attachment) into state
        both closures share.  Every override must return *bit-identical*
        floats to ``latency_ms(positions[a], positions[b])`` (and that
        divided by ``1000.0``) — the substrate-equivalence suite holds
        them to that.  The seconds closure is what message delivery
        calls, once per message, so it is one frame, not a call of the
        milliseconds one.
        """
        frozen = list(positions)
        latency_ms = self.latency_ms

        def pair_latency(a: int, b: int) -> float:
            return latency_ms(frozen[a], frozen[b])

        def pair_latency_s(a: int, b: int) -> float:
            return latency_ms(frozen[a], frozen[b]) / 1000.0

        return pair_latency, pair_latency_s


class EuclideanLatencyModel(LatencyModel):
    """Distance-proportional latencies in ``[min_latency, max_latency]``.

    ``latency(a, b) = min + (max - min) * distance(a, b) / diameter``

    Identical positions get the minimum latency (two peers in the same
    campus still cross a 10 ms access link); antipodal corners get the
    maximum.
    """

    def __init__(self, min_latency_ms: float = 10.0, max_latency_ms: float = 500.0) -> None:
        if min_latency_ms <= 0:
            raise ValueError(f"min_latency_ms must be positive, got {min_latency_ms}")
        if max_latency_ms < min_latency_ms:
            raise ValueError(
                f"max_latency_ms ({max_latency_ms}) must be >= min_latency_ms ({min_latency_ms})"
            )
        self.min_latency_ms = min_latency_ms
        self.max_latency_ms = max_latency_ms
        self._span = max_latency_ms - min_latency_ms

    def latency_ms(self, a: Point, b: Point) -> float:
        distance = a.distance_to(b)
        return self.min_latency_ms + self._span * (distance / UNIT_SQUARE_DIAMETER)

    def bind(self, positions: Sequence[Point]) -> BoundLatency:
        # Flat coordinate arrays kill the per-call Point attribute
        # chasing; the arithmetic is the exact scalar expression of
        # latency_ms (hypot + affine), so the floats are bit-identical.
        xs = array("d", (p.x for p in positions))
        ys = array("d", (p.y for p in positions))
        min_latency = self.min_latency_ms
        span = self._span
        hypot = math.hypot

        def pair_latency(a: int, b: int) -> float:
            return min_latency + span * (
                hypot(xs[a] - xs[b], ys[a] - ys[b]) / UNIT_SQUARE_DIAMETER
            )

        def pair_latency_s(a: int, b: int) -> float:
            return (
                min_latency
                + span * (hypot(xs[a] - xs[b], ys[a] - ys[b]) / UNIT_SQUARE_DIAMETER)
            ) / 1000.0

        return pair_latency, pair_latency_s


class RouterLevelLatencyModel(LatencyModel):
    """BRITE-style flat-router Waxman graph with shortest-path latencies.

    ``num_routers`` routers are placed uniformly in the unit square and
    joined by a Waxman random graph: routers ``u, v`` are linked with
    probability ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is
    the plane diameter.  Extra edges are added if needed to make the
    graph connected.  Each edge's latency is the Euclidean model's
    latency for its endpoints, scaled so that typical *end-to-end*
    shortest paths span the requested ``[min, max]`` range.

    A peer attaches to its nearest router (plus a last-mile latency for
    the access link), and peer-to-peer latency is last-mile + shortest
    router path + last-mile.

    All-pairs router distances are precomputed with Dijkstra per router
    (O(R · E log R)); keep ``num_routers`` modest (the default 64 is
    plenty for 1000 peers).
    """

    def __init__(
        self,
        rng: random.Random,
        num_routers: int = 64,
        alpha: float = 0.4,
        beta: float = 0.35,
        min_latency_ms: float = 10.0,
        max_latency_ms: float = 500.0,
        last_mile_ms: float = 5.0,
    ) -> None:
        if num_routers < 2:
            raise ValueError(f"num_routers must be >= 2, got {num_routers}")
        if not (0 < alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if min_latency_ms <= 0 or max_latency_ms < min_latency_ms:
            raise ValueError("latency bounds must satisfy 0 < min <= max")
        self.min_latency_ms = min_latency_ms
        self.max_latency_ms = max_latency_ms
        self.last_mile_ms = last_mile_ms
        self._routers = [Point(rng.random(), rng.random()) for _ in range(num_routers)]
        self._sort_routers()
        edges = self._waxman_edges(rng, alpha, beta)
        self._adjacency = self._build_adjacency(num_routers, edges)
        self._ensure_connected(rng)
        self._dist = self._all_pairs_shortest_paths()
        self._rescale_distances()

    # -- graph construction ----------------------------------------------

    def _sort_routers(self) -> None:
        """The routers by ``(x, index)``, for :meth:`nearest_router` (a
        stable sort on x keeps equal xs in index order)."""
        routers = self._routers
        self._order = sorted(range(len(routers)), key=lambda i: routers[i].x)
        self._xs = [routers[i].x for i in self._order]
        self._ys = [routers[i].y for i in self._order]

    def _waxman_edges(
        self, rng: random.Random, alpha: float, beta: float
    ) -> list[tuple[int, int, float]]:
        edges: list[tuple[int, int, float]] = []
        n = len(self._routers)
        for i in range(n):
            for j in range(i + 1, n):
                d = self._routers[i].distance_to(self._routers[j])
                p = alpha * math.exp(-d / (beta * UNIT_SQUARE_DIAMETER))
                if rng.random() < p:
                    edges.append((i, j, d))
        return edges

    @staticmethod
    def _build_adjacency(
        n: int, edges: list[tuple[int, int, float]]
    ) -> list[list[tuple[int, float]]]:
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for i, j, d in edges:
            adjacency[i].append((j, d))
            adjacency[j].append((i, d))
        return adjacency

    def _ensure_connected(self, rng: random.Random) -> None:
        """Join disconnected components with their closest router pairs."""
        n = len(self._routers)
        component = [-1] * n
        comp_id = 0
        for start in range(n):
            if component[start] != -1:
                continue
            stack = [start]
            component[start] = comp_id
            while stack:
                u = stack.pop()
                for v, _d in self._adjacency[u]:
                    if component[v] == -1:
                        component[v] = comp_id
                        stack.append(v)
            comp_id += 1
        while comp_id > 1:
            # Connect component 0 with the nearest router of any other component.
            best: tuple[float, int, int] | None = None
            for u in range(n):
                if component[u] != 0:
                    continue
                for v in range(n):
                    if component[v] == 0:
                        continue
                    d = self._routers[u].distance_to(self._routers[v])
                    if best is None or d < best[0]:
                        best = (d, u, v)
            assert best is not None  # comp_id > 1 guarantees another component
            d, u, v = best
            self._adjacency[u].append((v, d))
            self._adjacency[v].append((u, d))
            merged = component[v]
            component = [0 if c == merged else c for c in component]
            # Re-number remaining components densely.
            remaining = sorted(set(component))
            renumber = {old: new for new, old in enumerate(remaining)}
            component = [renumber[c] for c in component]
            comp_id = len(remaining)

    def _all_pairs_shortest_paths(self) -> list[list[float]]:
        n = len(self._routers)
        dist: list[list[float]] = []
        for source in range(n):
            d = [math.inf] * n
            d[source] = 0.0
            heap: list[tuple[float, int]] = [(0.0, source)]
            while heap:
                du, u = heapq.heappop(heap)
                if du > d[u]:
                    continue
                for v, w in self._adjacency[u]:
                    nd = du + w
                    if nd < d[v]:
                        d[v] = nd
                        heapq.heappush(heap, (nd, v))
            dist.append(d)
        return dist

    def _rescale_distances(self) -> None:
        """Map router-path distances onto the configured latency range.

        ``latency_ms`` adds ``min + 2*last_mile`` on top of the scaled
        backbone distance, so the scaled span must leave room for the
        access links: mapping the longest path to ``max - min`` alone
        would make the worst pair read ``max + 2*last_mile`` (510 ms
        with defaults), violating the documented ``[min, max]``
        contract.  Clamped at zero for degenerate configs where the
        last miles alone exhaust the range.
        """
        finite = [
            d for row in self._dist for d in row if d > 0 and math.isfinite(d)
        ]
        longest = max(finite) if finite else 1.0
        span = max(
            0.0, self.max_latency_ms - self.min_latency_ms - 2.0 * self.last_mile_ms
        )
        scale = span / longest if longest > 0 else 0.0
        self._dist = [
            [d * scale if math.isfinite(d) else math.inf for d in row] for row in self._dist
        ]

    # -- queries ----------------------------------------------------------------

    def nearest_router(self, p: Point) -> int:
        """Index of the router closest to position ``p`` (the first one
        on a tie).

        Walks the routers sorted by x outward from ``p.x``, right side
        then left; a side ends once the x gap alone exceeds the best
        distance so far (``hypot(dx, dy) >= |dx|``, and the gap only
        grows along a side).  Distances are the ``hypot(p - router)`` of
        :meth:`Point.distance_to` and an equal one goes to the smaller
        index, so the answer is a full scan's first minimum.
        """
        px, py = p.x, p.y
        xs, ys, order = self._xs, self._ys, self._order
        hypot = math.hypot
        best_d = math.inf
        best = -1
        right = bisect_left(xs, px)
        for side in (range(right, len(xs)), range(right - 1, -1, -1)):
            for k in side:
                dx = px - xs[k]
                if abs(dx) > best_d:
                    break
                d = hypot(dx, py - ys[k])
                if d < best_d or d == best_d and order[k] < best:
                    best_d = d
                    best = order[k]
        return best

    def latency_ms(self, a: Point, b: Point) -> float:
        ra = self.nearest_router(a)
        rb = self.nearest_router(b)
        backbone = self._dist[ra][rb]
        return self.min_latency_ms + 2.0 * self.last_mile_ms + backbone

    def bind(self, positions: Sequence[Point]) -> BoundLatency:
        # Peer -> nearest-router attachment is static, so pay the
        # search once per peer here instead of twice per message; the
        # backbone table flattens to one float array indexed ra*R+rb.
        # min + 2*last_mile is left-associated first in latency_ms, so
        # precomputing it keeps the sum bit-identical; so does the
        # seconds table, each entry that same sum over 1000.
        router_of = array("q", (self.nearest_router(p) for p in positions))
        n = len(self._routers)
        flat = array("d", (d for row in self._dist for d in row))
        base = self.min_latency_ms + 2.0 * self.last_mile_ms
        flat_s = array("d", ((base + d) / 1000.0 for d in flat))

        def pair_latency(a: int, b: int) -> float:
            return base + flat[router_of[a] * n + router_of[b]]

        def pair_latency_s(a: int, b: int) -> float:
            return flat_s[router_of[a] * n + router_of[b]]

        return pair_latency, pair_latency_s

    @property
    def num_routers(self) -> int:
        """Number of routers in the backbone graph."""
        return len(self._routers)
