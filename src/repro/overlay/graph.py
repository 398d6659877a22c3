"""Unstructured overlay graph construction and maintenance.

§3.1 of the paper: "each peer joins the network by establishing logical
links to randomly chosen peers ... the neighborhood of a peer is set
without knowledge of the underlying topology".  We reproduce that with
an Erdős–Rényi-style random graph targeting the paper's mean degree
(3), then patch connectivity: every component is linked into the giant
component with one random edge, so queries are not artificially
partitioned away from their results (PeerSim's wiring protocols do the
same).

**A row is one immutable tuple.**  §3.1 wires a peer when it joins and
only churn rewires it, so the graph is one list of rows, a peer's
neighbor ids as a tuple (``None`` once the peer has left).  A hop reads
its row with one list index (:meth:`OverlayGraph.neighbors_view`); a
mutation replaces the tuples it changes, so a row once handed out never
changes; and ``copy()`` (one per blueprint instantiation) copies the
list, every instance sharing the pristine tuples.  The one thing
derived from the wiring — a row ordered best connected first
(:meth:`OverlayGraph.ranked_neighbors`, §4.2's "highly connected
neighbor" rule) — is built on first use and forgotten by the mutation
that invalidates it.  Re-joins draw candidates from an incrementally
maintained sorted id list instead of re-sorting the whole population.

**Neighbor iteration order is part of the contract**: rows iterate in
edge *insertion* order (construction order; churn re-joins append).
That is what makes runs byte-identical — the original ``Set[int]`` rows
iterated in hash-table order, an implementation accident no
representation can reproduce.  ``tests/reference_graph.py`` keeps a
dict-of-rows implementation of the same contract as the oracle the
property suites compare against.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Sequence

__all__ = ["OverlayGraph"]


def _random_rows(
    num_peers: int,
    mean_degree: float,
    rng: random.Random,
    connect_components: bool,
) -> list[list[int]]:
    """Shared G(n, M) construction: insertion-ordered adjacency rows.

    The tests' reference graph builds from this helper too, so both
    consume the RNG identically and freeze identical rows.
    """
    if num_peers < 2:
        raise ValueError(f"need at least 2 peers, got {num_peers}")
    if mean_degree <= 0 or mean_degree >= num_peers:
        raise ValueError(
            f"mean_degree must be in (0, num_peers), got {mean_degree}"
        )
    # G(n, M) variant: exactly round(n * d / 2) distinct edges, which
    # pins the realised mean degree to the target.
    target_edges = round(num_peers * mean_degree / 2.0)
    max_edges = num_peers * (num_peers - 1) // 2
    target_edges = min(target_edges, max_edges)
    rows: list[list[int]] = [[] for _ in range(num_peers)]
    membership: list[set[int]] = [set() for _ in range(num_peers)]

    def add_edge(a: int, b: int) -> None:
        rows[a].append(b)
        rows[b].append(a)
        membership[a].add(b)
        membership[b].add(a)

    if 2 * target_edges > max_edges:
        # Dense regime: the rejection loop's accept probability tends
        # to zero as target_edges approaches max_edges (near-livelock
        # at mean_degree ≈ num_peers - 1), so sample the edge set
        # directly from the space of all possible edges instead.
        all_pairs = [
            (a, b) for a in range(num_peers) for b in range(a + 1, num_peers)
        ]
        for a, b in rng.sample(all_pairs, target_edges):
            add_edge(a, b)
    else:
        # Each endpoint is random.Random.randrange(num_peers) drawn
        # inline: the same getrandbits words in the same order
        # (tests/test_property_inline_draws.py pins it to the stdlib).
        getrandbits = rng.getrandbits
        bits = num_peers.bit_length()
        added = 0
        while added < target_edges:
            a = getrandbits(bits)
            while a >= num_peers:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= num_peers:
                b = getrandbits(bits)
            if a == b or b in membership[a]:
                continue
            add_edge(a, b)
            added += 1
    if connect_components:
        _connect_rows(rows, membership, rng)
    return rows


def _connect_rows(
    rows: list[list[int]], membership: list[set[int]], rng: random.Random
) -> None:
    """Link every component into the giant one with one random edge."""
    components = _components_of_rows(rows)
    if len(components) <= 1:
        return
    components.sort(key=len, reverse=True)
    giant_list = sorted(components[0])
    for component in components[1:]:
        a = rng.choice(sorted(component))
        b = rng.choice(giant_list)
        rows[a].append(b)
        rows[b].append(a)
        membership[a].add(b)
        membership[b].add(a)


def _components_of_rows(rows: Sequence[Sequence[int] | None]) -> list[set[int]]:
    """Components in order of their smallest id (absent rows skipped)."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in range(len(rows)):
        if start in seen or rows[start] is None:
            continue
        stack = [start]
        component = {start}
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in rows[u]:
                if v not in component:
                    component.add(v)
                    seen.add(v)
                    stack.append(v)
        components.append(component)
    return components


class OverlayGraph:
    """An undirected overlay graph over integer peer ids.

    ``_rows[pid]`` is the peer's neighbor ids in insertion order, as an
    immutable tuple, or ``None`` while the peer is out of the overlay.
    ``_ranked`` holds the rankings :meth:`ranked_neighbors` has handed
    out for the current wiring; :meth:`_forget` is the only place
    entries leave it.
    """

    __slots__ = (
        "_rows",
        "_ranked",
        "_present_sorted",
        "_num_present",
        "_num_edges",
    )

    def __init__(self, num_peers: int) -> None:
        if num_peers < 0:
            raise ValueError(f"num_peers must be non-negative, got {num_peers}")
        self._rows: list[tuple[int, ...] | None] = [()] * num_peers
        self._ranked: dict[int, tuple[int, ...]] = {}
        self._present_sorted: list[int] | None = None
        self._num_present = num_peers
        self._num_edges = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def random(
        cls,
        num_peers: int,
        mean_degree: float,
        rng: random.Random,
        connect_components: bool = True,
    ) -> OverlayGraph:
        """Build the paper's random overlay with the target mean degree."""
        rows = _random_rows(num_peers, mean_degree, rng, connect_components)
        graph = cls(num_peers)
        graph._rows = [tuple(row) for row in rows]
        graph._num_edges = sum(map(len, rows)) // 2
        return graph

    def copy(self) -> OverlayGraph:
        """An independent copy of the current wiring.

        The overlay is mutated at run time (churn tears down and
        rebuilds links), so a cached blueprint hands every
        instantiation its own copy of the pristine graph.  Rows are
        immutable, so the copy is one list copy sharing them; the clone
        starts with an empty ranking cache of its own.
        """
        clone = OverlayGraph(0)
        clone._rows = self._rows[:]
        clone._num_present = self._num_present
        clone._num_edges = self._num_edges
        return clone

    # -- mutation helpers ---------------------------------------------------

    def _forget(self, peer_id: int, row: tuple[int, ...]) -> None:
        """Drop what was derived from ``peer_id``'s row (``row``, as it
        is before the change): its ranking, and the ranking of every
        member — a member's ranking holds ``peer_id``'s degree.
        """
        ranked = self._ranked
        ranked.pop(peer_id, None)
        for member in row:
            ranked.pop(member, None)

    def _add_edge(self, a: int, b: int) -> None:
        rows = self._rows
        row_a = rows[a]
        if b in row_a:
            return
        row_b = rows[b]
        self._forget(a, row_a)
        self._forget(b, row_b)
        rows[a] = row_a + (b,)
        rows[b] = row_b + (a,)
        self._num_edges += 1

    # -- queries -----------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of peers currently in the graph."""
        return self._num_present

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def peers(self) -> list[int]:
        """All peer ids, sorted."""
        return list(self._sorted_present())

    def _sorted_present(self) -> list[int]:
        """The (cached) ascending list of present peer ids.

        Maintained incrementally by :meth:`add_peer`/:meth:`remove_peer`
        so a churn re-join no longer re-sorts the whole population."""
        if self._present_sorted is None:
            rows = self._rows
            self._present_sorted = [
                pid for pid in range(len(rows)) if rows[pid] is not None
            ]
        return self._present_sorted

    def contains(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the graph."""
        return 0 <= peer_id < len(self._rows) and self._rows[peer_id] is not None

    def neighbors(self, peer_id: int) -> set[int]:
        """A copy of ``peer_id``'s neighbors as a set."""
        return set(self.neighbors_view(peer_id))

    def neighbors_view(self, peer_id: int) -> tuple[int, ...]:
        """The neighbor row in insertion order, as an immutable tuple.

        The hot-path read: one list index per hop.  The tuple never
        changes once handed out — a later mutation makes the *next*
        call return a new tuple."""
        try:
            row = self._rows[peer_id]
        except IndexError:
            row = None
        if row is None or peer_id < 0:
            raise KeyError(f"peer {peer_id} not in the overlay")
        return row

    def ranked_neighbors(self, peer_id: int) -> tuple[int, ...]:
        """The neighbor row ordered for §4.2's 'highly connected
        neighbor' last resort: best connected first, ties towards the
        smaller id.

        Built on the first call after the row, or the degree of one of
        its members, last changed."""
        ranked = self._ranked.get(peer_id)
        if ranked is None:
            degree = self.degree
            ranked = self._ranked[peer_id] = tuple(
                sorted(self.neighbors_view(peer_id), key=lambda n: (-degree(n), n))
            )
        return ranked

    def degree(self, peer_id: int) -> int:
        """Number of neighbors of ``peer_id``."""
        return len(self.neighbors_view(peer_id))

    def mean_degree(self) -> float:
        """Realised average degree."""
        if not self._num_present:
            return 0.0
        return 2.0 * self._num_edges / self._num_present

    def components(self) -> list[set[int]]:
        """Connected components as peer-id sets."""
        return _components_of_rows(self._rows)

    # -- mutation (churn) ----------------------------------------------------

    def add_peer(self, peer_id: int, num_links: int, rng: random.Random) -> list[int]:
        """(Re)join ``peer_id`` with ``num_links`` random neighbors (§3.1).

        Returns the chosen neighbor ids.  Joining an existing id is an
        error; pick ids with :meth:`contains` first.
        """
        if peer_id < 0:
            raise ValueError(f"peer ids are non-negative, got {peer_id}")
        if self.contains(peer_id):
            raise ValueError(f"peer {peer_id} already in the overlay")
        candidates = self._sorted_present()
        rows = self._rows
        if peer_id >= len(rows):
            rows.extend([None] * (peer_id + 1 - len(rows)))
        rows[peer_id] = ()
        self._num_present += 1
        if not candidates:
            self._present_sorted = None
            return []
        chosen = rng.sample(candidates, min(num_links, len(candidates)))
        insort(candidates, peer_id)  # after sampling: a peer never links itself
        for neighbor in chosen:
            self._add_edge(peer_id, neighbor)
        return chosen

    def remove_peer(self, peer_id: int) -> set[int]:
        """Remove ``peer_id`` and its links; returns its former neighbors."""
        row = self.neighbors_view(peer_id)
        rows = self._rows
        self._forget(peer_id, row)
        rows[peer_id] = None
        for neighbor in row:
            neighbor_row = rows[neighbor]
            self._forget(neighbor, neighbor_row)
            at = neighbor_row.index(peer_id)
            rows[neighbor] = neighbor_row[:at] + neighbor_row[at + 1 :]
        self._num_present -= 1
        self._num_edges -= len(row)
        if self._present_sorted is not None:
            del self._present_sorted[bisect_index(self._present_sorted, peer_id)]
        return set(row)


def bisect_index(sorted_list: list[int], value: int) -> int:
    """Index of ``value`` in a sorted list (the caller guarantees presence)."""
    index = bisect_left(sorted_list, value)
    if index >= len(sorted_list) or sorted_list[index] != value:
        raise ValueError(f"{value} not present")
    return index
