"""Unit tests for the overlay graph."""

import random

import pytest

from repro.overlay import OverlayGraph


class TestRandomConstruction:
    def test_peer_count(self):
        g = OverlayGraph.random(100, 3.0, random.Random(1))
        assert g.num_peers == 100

    def test_mean_degree_close_to_target(self):
        """G(n, M) construction pins the edge count exactly."""
        g = OverlayGraph.random(200, 3.0, random.Random(2), connect_components=False)
        assert g.mean_degree() == pytest.approx(3.0, abs=0.01)

    def test_connected_after_patching(self):
        for seed in range(5):
            g = OverlayGraph.random(100, 3.0, random.Random(seed))
            assert g.is_connected()

    def test_connecting_adds_few_edges(self):
        unpatched = OverlayGraph.random(200, 3.0, random.Random(3), connect_components=False)
        patched = OverlayGraph.random(200, 3.0, random.Random(3), connect_components=True)
        assert patched.num_edges - unpatched.num_edges <= len(unpatched.components())

    def test_deterministic(self):
        a = OverlayGraph.random(50, 3.0, random.Random(4))
        b = OverlayGraph.random(50, 3.0, random.Random(4))
        assert all(a.neighbors(i) == b.neighbors(i) for i in range(50))

    def test_no_self_loops(self):
        g = OverlayGraph.random(100, 4.0, random.Random(5))
        for pid in g.peers():
            assert pid not in g.neighbors(pid)

    def test_symmetry(self):
        g = OverlayGraph.random(100, 3.0, random.Random(6))
        for pid in g.peers():
            for neighbor in g.neighbors(pid):
                assert pid in g.neighbors(neighbor)

    def test_invalid_params_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            OverlayGraph.random(1, 3.0, rng)
        with pytest.raises(ValueError):
            OverlayGraph.random(10, 0.0, rng)
        with pytest.raises(ValueError):
            OverlayGraph.random(10, 10.0, rng)


class TestQueries:
    @pytest.fixture()
    def graph(self):
        return OverlayGraph.random(60, 3.0, random.Random(9))

    def test_neighbors_returns_copy(self, graph):
        neighbors = graph.neighbors(0)
        neighbors.add(999)
        assert 999 not in graph.neighbors(0)

    def test_degree_matches_neighbor_count(self, graph):
        for pid in graph.peers():
            assert graph.degree(pid) == len(graph.neighbors(pid))

    def test_ranked_neighbors_lead_with_the_best_connected(self, graph):
        for pid in graph.peers():
            ranked = graph.ranked_neighbors(pid)
            assert sorted(ranked) == sorted(graph.neighbors(pid))
            degrees = [graph.degree(n) for n in ranked]
            assert degrees == sorted(degrees, reverse=True)

    def test_ranked_neighbors_tie_breaks_low_id(self):
        g = OverlayGraph(4)
        g._add_edge(0, 2)  # noqa: SLF001 - direct wiring for a controlled topology
        g._add_edge(0, 1)  # noqa: SLF001
        g._add_edge(1, 3)  # noqa: SLF001
        g._add_edge(2, 3)  # noqa: SLF001
        # Neighbors of 0 are 2 and 1 (insertion order), both degree 2 -> 1 leads.
        assert g.neighbors_view(0) == (2, 1)
        assert g.ranked_neighbors(0) == (1, 2)

    def test_degree_histogram_sums(self, graph):
        histogram = graph.degree_histogram()
        assert sum(histogram.values()) == graph.num_peers

    def test_components_partition_peers(self, graph):
        components = graph.components()
        all_peers = set()
        for component in components:
            assert not (all_peers & component)
            all_peers |= component
        assert all_peers == set(graph.peers())


class TestMutation:
    def test_remove_peer_drops_links(self):
        g = OverlayGraph.random(30, 3.0, random.Random(11))
        victim = 5
        neighbors = g.remove_peer(victim)
        assert not g.contains(victim)
        for neighbor in neighbors:
            assert victim not in g.neighbors(neighbor)

    def test_remove_missing_raises(self):
        g = OverlayGraph(3)
        g.remove_peer(0)
        with pytest.raises(KeyError):
            g.remove_peer(0)

    def test_add_peer_rejoins_with_links(self):
        g = OverlayGraph.random(30, 3.0, random.Random(12))
        g.remove_peer(7)
        chosen = g.add_peer(7, 3, random.Random(13))
        assert g.contains(7)
        assert g.neighbors(7) == set(chosen)
        assert len(chosen) == 3

    def test_add_existing_peer_rejected(self):
        g = OverlayGraph.random(10, 3.0, random.Random(14))
        with pytest.raises(ValueError):
            g.add_peer(0, 3, random.Random(1))

    def test_add_peer_to_empty_graph(self):
        g = OverlayGraph(0)
        assert g.add_peer(0, 3, random.Random(1)) == []
        assert g.num_peers == 1
