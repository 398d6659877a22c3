"""Unit tests for Peer state."""

import random

import pytest

from repro.files import FileCatalog, FileStore, KeywordPool
from repro.overlay import Peer


@pytest.fixture(scope="module")
def catalog():
    return FileCatalog.generate(50, 3, KeywordPool(150), random.Random(5))


def make_peer(catalog, peer_id=0, locid=3, gid=1):
    return Peer(peer_id=peer_id, locid=locid, gid=gid, store=FileStore(catalog))


class TestPeer:
    def test_initial_state(self, catalog):
        peer = make_peer(catalog)
        assert peer.alive
        assert peer.locid == 3
        assert peer.gid == 1
        assert peer.protocol_state == {}

    def test_reset_session_state_clears_soft_state(self, catalog):
        peer = make_peer(catalog)
        peer.protocol_state["cache"] = object()
        peer.store.add(7)
        peer.reset_session_state()
        assert peer.protocol_state == {}
        # Files survive churn (they live on disk).
        assert peer.store.contains(7)

    def test_repr_mentions_identity(self, catalog):
        peer = make_peer(catalog, peer_id=9)
        assert "id=9" in repr(peer)
