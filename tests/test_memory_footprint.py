"""Footprint gates that do not read a clock.

A peer's share of a world is sized by what the peer holds — three
files, and no protocol state until it caches or hears something — not
by the population.  ``tracemalloc`` on a 600-peer router-model world at the
``bench/`` ratios bounds the bytes per peer of the two halves of a
cell's set-up; the structural checks below say the same without
depending on any interpreter's object sizes.

Per peer, in bytes, when the bounds were set (CPython 3.11): build
1 721 (2 534 while the catalog held a ``FileRecord``, a ``frozenset``
of keywords and a filename string per file, 2 716 while ``Point`` and
``FileRecord`` carried a ``__dict__`` each, 4 070 with the catalog's
eager inverted index on top), instantiate + protocol + start 931
(1 192 with a file-id ``set`` and an instance ``__dict__`` per store,
2 530 with an index and three filters made per peer up front, 5 430
with a ``set`` per stored keyword and a zero-filled counter array per
filter on top).
"""

import random
import tracemalloc

import pytest

from repro.experiments import small_config
from repro.experiments.runner import make_protocol
from repro.files import FileCatalog, FileStore, KeywordPool
from repro.overlay import NetworkBlueprint

PEERS = 600
BUILD_BYTES_PER_PEER = 2000
START_BYTES_PER_PEER = 1100


def _bench_config(seed=11):
    return small_config(seed=seed).replace(
        num_peers=PEERS,
        num_files=3 * PEERS,
        keyword_pool_size=9 * PEERS,
        latency_model="router",
        query_rate_per_peer=0.02,
    )


@pytest.fixture(scope="module")
def traced_world():
    """(blueprint, started protocol, bytes traced by build, by start-up)."""
    config = _bench_config()
    tracemalloc.start()
    try:
        blueprint = NetworkBlueprint.build(config)
        build_bytes = tracemalloc.get_traced_memory()[0]
        network = blueprint.instantiate()
        protocol = make_protocol("locaware", network)
        protocol.start()
        start_bytes = tracemalloc.get_traced_memory()[0] - build_bytes
    finally:
        tracemalloc.stop()
    return blueprint, protocol, build_bytes, start_bytes


def test_build_bytes_per_peer(traced_world):
    _blueprint, _protocol, build_bytes, _start_bytes = traced_world
    assert build_bytes / PEERS <= BUILD_BYTES_PER_PEER


def test_instantiate_protocol_start_bytes_per_peer(traced_world):
    _blueprint, _protocol, _build_bytes, start_bytes = traced_world
    assert start_bytes / PEERS <= START_BYTES_PER_PEER


def test_a_freshly_started_peers_protocol_state_is_empty(traced_world):
    _blueprint, protocol, _build_bytes, _start_bytes = traced_world
    peers = protocol.network.peers
    assert len(peers) == PEERS
    for peer in peers:
        assert peer.protocol_state == {}


def test_no_set_is_reachable_from_a_fresh_stores_postings():
    catalog = FileCatalog.generate(30, 3, KeywordPool(20), random.Random(2))
    store = FileStore(catalog)
    store.add_many([0, 1, 2, 3, 4, 5])
    assert len(store._inverted) < 18  # some keywords are on two files
    for keyword, posting in store._inverted.items():
        assert type(keyword) is str
        assert type(posting) is tuple
        assert all(type(file_id) is int for file_id in posting)


def test_a_store_is_its_postings_and_a_count():
    catalog = FileCatalog.generate(30, 3, KeywordPool(20), random.Random(2))
    store = FileStore(catalog)
    store.add_many([0, 1, 2])
    assert not hasattr(store, "__dict__")
    assert set(FileStore.__slots__) == {"_catalog", "_size", "_inverted"}
    assert store._size == store.size == 3


def test_a_catalog_file_is_one_tuple_of_vocabulary_strings():
    pool = KeywordPool(20)
    catalog = FileCatalog.generate(30, 3, pool, random.Random(2))
    vocabulary = pool.all_keywords()
    assert sorted(vars(catalog)) == ["_ids", "_keywords", "_pool"]
    assert len(catalog._keywords) == len(catalog._ids) == 30
    for file_id, keywords in enumerate(catalog._keywords):
        assert type(keywords) is tuple
        assert all(kw is vocabulary[int(kw[2:])] for kw in keywords)
        # The map's key is the list's own tuple, not a copy.
        assert catalog._ids[keywords] == file_id
        assert next(k for k in catalog._ids if k == keywords) is keywords
