"""Dict-of-rows reference implementation of the overlay contract.

The oracle the property suites hold :class:`repro.overlay.graph.OverlayGraph`
against (``tests/test_substrate_equivalence.py``,
``tests/test_property_substrates.py``, ``tests/test_hot_path_counts.py``):
same construction RNG draws (both build from ``_random_rows``), same
insertion-ordered neighbor rows (``dict[int, None]`` rows preserve
insertion order), same mutation rules — and **no shared or derived
state**: every ``neighbors_view`` builds a fresh tuple from a mutable
row, and every ``ranked_neighbors`` sorts it again, asking ``degree``
once per member.  That is what the production graph's immutable row
tuples (shared between copies) and per-wiring rankings must be
indistinguishable from, and what a last-resort hop cost before the
rankings were cached.

Lived in ``src/repro/overlay/graph.py`` as ``DictOverlayGraph`` until
it had no caller there; a reference implementation belongs with the
tests that use it.
"""

from __future__ import annotations

import random

from repro.overlay.graph import _random_rows

__all__ = ["DictOverlayGraph"]


class DictOverlayGraph:
    """Semantically identical to ``OverlayGraph``, one dict per row."""

    def __init__(self, num_peers: int) -> None:
        if num_peers < 0:
            raise ValueError(f"num_peers must be non-negative, got {num_peers}")
        self._adjacency: dict[int, dict[int, None]] = {
            pid: {} for pid in range(num_peers)
        }

    @classmethod
    def random(
        cls,
        num_peers: int,
        mean_degree: float,
        rng: random.Random,
        connect_components: bool = True,
    ) -> DictOverlayGraph:
        rows = _random_rows(num_peers, mean_degree, rng, connect_components)
        graph = cls(num_peers)
        for pid, row in enumerate(rows):
            graph._adjacency[pid] = dict.fromkeys(row)
        return graph

    def copy(self) -> DictOverlayGraph:
        clone = DictOverlayGraph(0)
        clone._adjacency = {pid: dict(row) for pid, row in self._adjacency.items()}
        return clone

    def _add_edge(self, a: int, b: int) -> None:
        if b in self._adjacency[a]:
            return
        self._adjacency[a][b] = None
        self._adjacency[b][a] = None

    @property
    def num_peers(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self._adjacency.values()) // 2

    def peers(self) -> list[int]:
        return sorted(self._adjacency)

    def contains(self, peer_id: int) -> bool:
        return peer_id in self._adjacency

    def neighbors(self, peer_id: int) -> set[int]:
        return set(self._adjacency[peer_id])

    def neighbors_view(self, peer_id: int) -> tuple[int, ...]:
        return tuple(self._adjacency[peer_id])

    def ranked_neighbors(self, peer_id: int) -> tuple[int, ...]:
        """Best connected first, ties to smaller ids — recomputed per call."""
        degree = self.degree
        return tuple(
            sorted(self._adjacency[peer_id], key=lambda n: (-degree(n), n))
        )

    def degree(self, peer_id: int) -> int:
        return len(self._adjacency[peer_id])

    def mean_degree(self) -> float:
        if not self._adjacency:
            return 0.0
        return 2.0 * self.num_edges / len(self._adjacency)

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        components: list[set[int]] = []
        for start in sorted(self._adjacency):
            if start in seen:
                continue
            stack = [start]
            component = {start}
            seen.add(start)
            while stack:
                u = stack.pop()
                for v in self._adjacency[u]:
                    if v not in component:
                        component.add(v)
                        seen.add(v)
                        stack.append(v)
            components.append(component)
        return components

    def add_peer(self, peer_id: int, num_links: int, rng: random.Random) -> list[int]:
        if peer_id in self._adjacency:
            raise ValueError(f"peer {peer_id} already in the overlay")
        candidates = sorted(self._adjacency)
        self._adjacency[peer_id] = {}
        if not candidates:
            return []
        chosen = rng.sample(candidates, min(num_links, len(candidates)))
        for neighbor in chosen:
            self._add_edge(peer_id, neighbor)
        return chosen

    def remove_peer(self, peer_id: int) -> set[int]:
        row = self._adjacency.pop(peer_id, None)
        if row is None:
            raise KeyError(f"peer {peer_id} not in the overlay")
        for neighbor in row:
            self._adjacency[neighbor].pop(peer_id, None)
        return set(row)
