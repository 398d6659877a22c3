"""Unit tests for Dicas and Dicas-Keys protocol internals."""


from repro.experiments import run_protocol
from repro.overlay import P2PNetwork, ProviderEntry, Query, QueryResponse
from repro.protocols import (
    DicasKeysProtocol,
    DicasProtocol,
    file_group,
    query_group_guess,
    stable_hash,
)
from repro.sim import SimulationConfig


def make(cls, seed=5, **overrides):
    config = SimulationConfig.small(seed=seed)
    if overrides:
        config = config.replace(**overrides)
    network = P2PNetwork.build(config)
    return network, cls(network)


def make_query(network, origin=0, keywords=("kw1",), path=None):
    return Query(
        query_id=1,
        origin=origin,
        origin_locid=network.peer(origin).locid,
        keywords=tuple(keywords),
        target_file=0,
        ttl=7,
        path=tuple(path) if path is not None else (origin,),
    )


def make_response(network, file_id, origin=0, provider=None, keywords=None):
    record = network.catalog.record(file_id)
    provider = provider or ProviderEntry(9, 2)
    return QueryResponse(
        query_id=1,
        origin=origin,
        origin_locid=network.peer(origin).locid,
        keywords=tuple(sorted(record.keywords) if keywords is None else keywords),
        file_id=file_id,
        filename=record.filename,
        providers=(provider,),
        responder=provider.peer_id,
        reverse_path=(origin,),
    )


class TestDicasRouting:
    def test_routes_to_matching_gid_neighbors(self):
        network, protocol = make(DicasProtocol)
        peer = network.peer(0)
        query = make_query(network, origin=5, keywords=("kw1", "kw2"), path=(5,))
        group = query_group_guess(("kw1", "kw2"), network.config.group_count)
        matching = [
            n for n in network.graph.neighbors_view(0)
            if n != 5 and network.peer(n).gid == group
        ]
        targets = protocol.select_forward_targets(peer, query)
        if matching:
            assert set(targets) == set(matching)
        else:
            assert 1 <= len(targets) <= network.config.fallback_fanout

    def test_fallback_prefers_high_degree(self):
        network, protocol = make(DicasProtocol)
        fallback = protocol._fallback_neighbors(0, last_hop=-1)
        degrees = [network.graph.degree(n) for n in fallback]
        other_degrees = [
            network.graph.degree(n)
            for n in network.graph.neighbors_view(0)
            if n not in fallback
        ]
        if other_degrees:
            assert min(degrees) >= max(other_degrees) - 1  # top-k by degree

    def test_fallback_respects_fanout_config(self):
        network, protocol = make(DicasProtocol, fallback_fanout=1)
        assert len(protocol._fallback_neighbors(0, last_hop=-1)) <= 1


class TestDicasCaching:
    def test_caches_only_matching_gid(self):
        network, protocol = make(DicasProtocol)
        record = network.catalog.record(3)
        group = file_group(record.filename, network.config.group_count)
        matching = next(p for p in network.peers if p.gid == group)
        non_matching = next(p for p in network.peers if p.gid != group)
        response = make_response(network, 3)
        protocol.on_response_transit(matching, response)
        protocol.on_response_transit(non_matching, response)
        assert record.filename in protocol.index_of(matching).filenames()
        assert record.filename not in protocol.index_of(non_matching).filenames()

    def test_check_index_returns_cached_provider(self):
        network, protocol = make(DicasProtocol)
        record = network.catalog.record(3)
        peer = network.peer(1)
        protocol.index_of(peer).put(record.filename, [ProviderEntry(9, None)])
        query = make_query(network, keywords=sorted(record.keywords)[:1])
        response = protocol.check_index(peer, query)
        assert response is not None
        assert response.providers == (ProviderEntry(9, None),)
        assert response.file_id == 3

    def test_index_survives_capacity_via_config(self):
        network, protocol = make(DicasProtocol, index_capacity=2)
        peer = network.peer(1)
        for fid in range(3):
            protocol.index_of(peer).put(
                network.catalog.filename(fid), [ProviderEntry(fid, None)]
            )
        assert protocol.index_of(peer).size == 2


class TestDicasKeys:
    def test_routing_group_uses_designated_keyword(self):
        network, protocol = make(DicasKeysProtocol)
        assert protocol._routing_group(("kwb", "kwa")) == stable_hash("kwa") % 4

    def test_cache_groups_cover_all_keywords(self):
        network, protocol = make(DicasKeysProtocol)
        response = make_response(network, 3, keywords=("kw1", "kw2", "kw3"))
        groups = protocol._cache_groups(response)
        assert groups == {
            stable_hash(kw) % network.config.group_count
            for kw in ("kw1", "kw2", "kw3")
        }

    def test_caches_at_any_keyword_group(self):
        """The duplication the paper criticises: one response can be
        cached under several keyword groups."""
        network, protocol = make(DicasKeysProtocol)
        record = network.catalog.record(3)
        response = make_response(network, 3)
        groups = protocol._cache_groups(response)
        cached_gids = set()
        for gid in range(network.config.group_count):
            peer = next(p for p in network.peers if p.gid == gid)
            protocol.on_response_transit(peer, response)
            if record.filename in protocol.index_of(peer).filenames():
                cached_gids.add(gid)
        assert cached_gids == groups

    def test_different_queries_may_place_same_file_differently(self):
        """Cache placement depends on *query* keywords, lookup on the
        designated keyword — the §5.2 inconsistency."""
        network, protocol = make(DicasKeysProtocol)
        record = network.catalog.record(3)
        kws = sorted(record.keywords)
        placements = {
            frozenset(protocol._cache_groups(make_response(network, 3, keywords=(kw,))))
            for kw in kws
        }
        # With 3 keywords and M=4 it is overwhelmingly likely at least
        # two keywords hash to different groups for some catalog file;
        # assert it for *some* file to keep the test seed-robust.
        if len(placements) == 1:
            found_differing = False
            for fid in range(network.config.num_files):
                kws = sorted(network.catalog.keywords(fid))
                groups = {protocol._routing_group((kw,)) for kw in kws}
                if len(groups) > 1:
                    found_differing = True
                    break
            assert found_differing


class TestIndexCounters:
    """One meaning for ``index.inserts`` / ``index.evictions`` in every
    caching protocol: a new filename, a filename pushed out."""

    def test_refresh_is_not_an_insert(self):
        network, protocol = make(DicasProtocol)
        record = network.catalog.record(3)
        group = file_group(record.filename, network.config.group_count)
        peer = next(p for p in network.peers if p.gid == group)
        protocol.on_response_transit(peer, make_response(network, 3))
        protocol.on_response_transit(
            peer, make_response(network, 3, provider=ProviderEntry(11, 1))
        )
        assert network.metrics.counter("index.inserts").value == 1
        assert protocol.index_of(peer).providers_of(record.filename) == [
            ProviderEntry(11, 1)
        ]

    def test_dicas_cell_counts_evictions(self):
        config = SimulationConfig.small(seed=5).replace(index_capacity=2)
        run = run_protocol(config, "dicas", max_queries=200, bucket_width=50)
        index = run.telemetry.protocol["index"]
        assert index["evictions"] > 0
        assert index["inserts"] >= index["evictions"]
