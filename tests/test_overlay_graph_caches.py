"""The per-wiring caches of ``OverlayGraph``: immutable views, coherent under churn.

``neighbors_view`` and ``ranked_neighbors`` hand out tuples that the
graph keeps until a mutation invalidates them.  Three things are pinned:

- a view, once handed out, never changes and cannot be changed — on a
  pristine (CSR) row and on a promoted (copy-on-write) row alike;
- after any sequence of ``add_peer`` / ``remove_peer`` / ``copy`` with
  every cache warm, every present peer's row and ranking equal a
  from-scratch recomputation and the reference graph's, and a clone and
  its original never see each other's mutations;
- that property has teeth: three hand-made mutants of the invalidation
  are each caught by it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_graph import DictOverlayGraph

from repro.overlay import OverlayGraph

PEERS = 40


# -- views are immutable snapshots -------------------------------------------


class TestViewsNeverChange:
    def test_pristine_and_promoted_rows_behave_alike(self):
        """Before the row tuple, a held view of a pristine row was a
        snapshot but a held view of a promoted row was the live array."""
        g = OverlayGraph.random(30, 3.0, random.Random(3))
        pristine = g.neighbors_view(1)
        assert pristine == (18, 4)
        g.remove_peer(18)  # promotes row 1
        assert pristine == (18, 4)
        promoted = g.neighbors_view(1)
        assert promoted == (4,)
        g.remove_peer(4)
        assert promoted == (4,)
        assert g.neighbors_view(1) == ()

    def test_a_held_view_survives_a_rejoin(self):
        g = OverlayGraph.random(30, 3.0, random.Random(3))
        g.remove_peer(7)
        held = {pid: g.neighbors_view(pid) for pid in g.peers()}
        ranked = {pid: g.ranked_neighbors(pid) for pid in g.peers()}
        snapshot = {pid: tuple(row) for pid, row in held.items()}
        chosen = g.add_peer(7, 3, random.Random(5))
        assert held == snapshot
        for pid in chosen:
            assert g.neighbors_view(pid) == held[pid] + (7,)
            assert g.neighbors_view(pid) is not held[pid]
            assert 7 in g.ranked_neighbors(pid) and 7 not in ranked[pid]
        assert g.neighbors_view(7) == tuple(chosen)

    def test_views_are_tuples_and_repeat_reads_share_one(self):
        g = OverlayGraph.random(30, 3.0, random.Random(3))
        g.remove_peer(18)
        for pid in (1, 2):  # one promoted row, one pristine
            for read in (g.neighbors_view, g.ranked_neighbors):
                view = read(pid)
                assert type(view) is tuple
                assert read(pid) is view
                with pytest.raises(TypeError):
                    view[0] = 99  # type: ignore[index]
                assert not hasattr(view, "append")

    def test_absent_peers_have_no_view(self):
        g = OverlayGraph.random(30, 3.0, random.Random(3))
        g.neighbors_view(5), g.ranked_neighbors(5)  # warm, then leave
        g.remove_peer(5)
        for read in (g.neighbors_view, g.ranked_neighbors):
            with pytest.raises(KeyError):
                read(5)


# -- coherence under mutation -------------------------------------------------


def check_coherent(graph, reference):
    """Every present peer's cached row and ranking, against the wiring
    itself and against the reference graph.  Reading them also warms
    the caches for whatever mutation comes next."""
    assert graph.peers() == reference.peers()
    for pid in graph.peers():
        row = graph.neighbors_view(pid)
        ranked = graph.ranked_neighbors(pid)
        assert type(row) is tuple and type(ranked) is tuple
        assert row == tuple(graph._row(pid)), pid
        assert ranked == tuple(sorted(row, key=lambda n: (-graph.degree(n), n))), pid
        assert row == reference.neighbors_view(pid), pid
        assert ranked == reference.ranked_neighbors(pid), pid


def run_sequence(graph_cls, seed, ops):
    """Apply ``ops`` to ``graph_cls`` graphs and their reference twins.

    ``worlds`` holds (graph, reference, rng, reference rng); a ``copy``
    op clones one of them (at most three live at once), the others
    mutate the world they name.  Every world is checked — and thereby
    re-warmed — before the first and after every op, so a mutation
    always lands on warm caches and a clone's mutation is seen by its
    original's check.
    """
    worlds = [
        (
            graph_cls.random(PEERS, 3.0, random.Random(seed)),
            DictOverlayGraph.random(PEERS, 3.0, random.Random(seed)),
            random.Random(seed + 1),
            random.Random(seed + 1),
        )
    ]
    check_coherent(*worlds[0][:2])
    for kind, pid, which in ops:
        graph, reference, rng, reference_rng = worlds[which % len(worlds)]
        if kind == "copy":
            if len(worlds) < 3:
                state = rng.getstate()
                clone_rng, clone_reference_rng = random.Random(), random.Random()
                clone_rng.setstate(state)
                clone_reference_rng.setstate(state)
                worlds.append(
                    (graph.copy(), reference.copy(), clone_rng, clone_reference_rng)
                )
        elif graph.contains(pid):
            assert graph.remove_peer(pid) == reference.remove_peer(pid)
        else:
            assert graph.add_peer(pid, 3, rng) == reference.add_peer(
                pid, 3, reference_rng
            )
        for world in worlds:
            check_coherent(*world[:2])


operations = st.lists(
    st.tuples(
        st.sampled_from(["toggle", "toggle", "toggle", "copy"]),
        st.integers(0, PEERS - 1),
        st.integers(0, 2),
    ),
    max_size=40,
)


@given(seed=st.integers(0, 1000), ops=operations)
@settings(max_examples=60, deadline=None)
def test_caches_stay_coherent_under_mutation(seed, ops):
    run_sequence(OverlayGraph, seed, ops)


# -- the property has teeth ---------------------------------------------------


class ForgetsOnlyTheMutatedPeer(OverlayGraph):
    """Keeps a stale degree in the rankings of the mutated peer's neighbors."""

    def _forget(self, peer_id, row):
        super()._forget(peer_id, ())


class AddPeerSkipsInvalidation(OverlayGraph):
    """A rejoin rewires its chosen neighbors under their warm caches."""

    _joining = False

    def add_peer(self, peer_id, num_links, rng):
        self._joining = True
        try:
            return super().add_peer(peer_id, num_links, rng)
        finally:
            self._joining = False

    def _forget(self, peer_id, row):
        if not self._joining:
            super()._forget(peer_id, row)


class CopySharesCaches(OverlayGraph):
    """The clone reads and invalidates the original's cache dicts."""

    def copy(self):
        clone = super().copy()
        clone._rows, clone._ranked = self._rows, self._ranked
        return clone


def scripted_ops(seed):
    rng = random.Random(seed)
    return [
        (rng.choice(["toggle", "toggle", "toggle", "copy"]), rng.randrange(PEERS),
         rng.randrange(3))
        for _ in range(40)
    ]


@pytest.mark.parametrize(
    "mutant", [ForgetsOnlyTheMutatedPeer, AddPeerSkipsInvalidation, CopySharesCaches]
)
def test_each_invalidation_mutant_is_caught(mutant):
    for seed in range(10):
        run_sequence(OverlayGraph, seed, scripted_ops(seed))  # the script is fair
        with pytest.raises(AssertionError):
            run_sequence(mutant, seed, scripted_ops(seed))
