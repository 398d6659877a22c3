"""Property-based tests for the overlay graph under mutation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import OverlayGraph


@st.composite
def mutation_sequences(draw):
    """A random graph plus a sequence of remove/re-add operations."""
    seed = draw(st.integers(0, 1000))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["remove", "add"]), st.integers(0, 29)),
            max_size=40,
        )
    )
    return seed, ops


class TestGraphMutationProperties:
    @given(data=mutation_sequences())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_no_self_loops_preserved(self, data):
        seed, ops = data
        rng = random.Random(seed)
        graph = OverlayGraph.random(30, 3.0, rng)
        for op, pid in ops:
            if op == "remove" and graph.contains(pid):
                graph.remove_peer(pid)
            elif op == "add" and not graph.contains(pid):
                graph.add_peer(pid, 3, rng)
            # Invariants after every mutation:
            for peer in graph.peers():
                neighbors = graph.neighbors_view(peer)
                assert peer not in neighbors
                for neighbor in neighbors:
                    assert graph.contains(neighbor)
                    assert peer in graph.neighbors_view(neighbor)

    @given(data=mutation_sequences())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_consistent_with_degrees(self, data):
        seed, ops = data
        rng = random.Random(seed)
        graph = OverlayGraph.random(30, 3.0, rng)
        for op, pid in ops:
            if op == "remove" and graph.contains(pid):
                graph.remove_peer(pid)
            elif op == "add" and not graph.contains(pid):
                graph.add_peer(pid, 3, rng)
        degree_sum = sum(graph.degree(p) for p in graph.peers())
        assert degree_sum == 2 * graph.num_edges

    @given(seed=st.integers(0, 500), mean_degree=st.floats(1.0, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_random_graph_hits_target_edge_count(self, seed, mean_degree):
        graph = OverlayGraph.random(
            40, mean_degree, random.Random(seed), connect_components=False
        )
        assert graph.num_edges == round(40 * mean_degree / 2)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_connectivity_patch_always_connects(self, seed):
        graph = OverlayGraph.random(50, 1.5, random.Random(seed))
        assert len(graph.components()) == 1

    @given(seed=st.integers(0, 500), num_peers=st.integers(10, 60))
    @settings(max_examples=30, deadline=None)
    def test_dense_graph_construction_terminates(self, seed, num_peers):
        """mean_degree = num_peers - 1 is the complete graph.

        The old rejection-sampling loop near-livelocked here (accept
        probability tends to zero as the edge set fills); the dense
        path samples the remaining non-edges directly.
        """
        graph = OverlayGraph.random(
            num_peers, num_peers - 1, random.Random(seed), connect_components=False
        )
        assert graph.num_edges == num_peers * (num_peers - 1) // 2
        for pid in graph.peers():
            assert graph.degree(pid) == num_peers - 1

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_dense_and_sparse_regimes_agree_on_invariants(self, seed):
        """Graphs just past the density threshold keep all invariants."""
        n = 24
        graph = OverlayGraph.random(
            n, n * 0.7, random.Random(seed), connect_components=False
        )
        assert graph.num_edges == round(n * n * 0.7 / 2)
        for pid in graph.peers():
            row = graph.neighbors_view(pid)
            assert pid not in row
            assert len(set(row)) == len(row)
            for neighbor in row:
                assert pid in graph.neighbors_view(neighbor)
