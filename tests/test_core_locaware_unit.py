"""Unit tests for LocawareProtocol internals."""


from repro.bloom import elements_mask
from repro.core import LocawareProtocol
from repro.core.locaware import LocawareRoutingProtocol
from repro.overlay import P2PNetwork, ProviderEntry, Query
from repro.protocols import file_group
from repro.sim import SimulationConfig


def make_protocol(seed=5, protocol_cls=LocawareProtocol, **overrides):
    config = SimulationConfig.small(seed=seed)
    if overrides:
        config = config.replace(**overrides)
    network = P2PNetwork.build(config)
    return network, protocol_cls(network)


def vector_of(network, keywords):
    """The filter vector of exactly ``keywords``."""
    config = network.config
    return elements_mask(keywords, config.bloom_bits, config.bloom_hashes)


def make_query(protocol, origin=0, keywords=("kw1",), ttl=7, path=None, qid=1):
    """A query as ``protocol`` issues it: carrying its routing keys."""
    group, keyword_mask = protocol.routing_keys(tuple(keywords))
    return Query(
        query_id=qid,
        origin=origin,
        origin_locid=protocol.network.peer(origin).locid,
        keywords=tuple(keywords),
        target_file=0,
        ttl=ttl,
        path=tuple(path) if path is not None else (origin,),
        group=group,
        keyword_mask=keyword_mask,
    )


class TestOrderedProviders:
    def test_locid_matches_come_first(self):
        network, protocol = make_protocol()
        providers = [ProviderEntry(1, 9), ProviderEntry(2, 3), ProviderEntry(4, 9)]
        ordered = protocol._ordered_providers(providers, origin=0, origin_locid=3)
        assert ordered[0] == ProviderEntry(2, 3)

    def test_origin_excluded(self):
        network, protocol = make_protocol()
        providers = [ProviderEntry(0, 3), ProviderEntry(2, 3)]
        ordered = protocol._ordered_providers(providers, origin=0, origin_locid=3)
        assert all(p.peer_id != 0 for p in ordered)

    def test_capped_at_max_providers(self):
        network, protocol = make_protocol()
        providers = [ProviderEntry(i, 9) for i in range(1, 12)]
        ordered = protocol._ordered_providers(providers, origin=0, origin_locid=3)
        assert len(ordered) == network.config.max_providers_per_file

    def test_preserves_relative_order_within_tiers(self):
        network, protocol = make_protocol()
        providers = [
            ProviderEntry(1, 9),
            ProviderEntry(2, 3),
            ProviderEntry(5, 3),
            ProviderEntry(7, 8),
        ]
        ordered = protocol._ordered_providers(providers, origin=0, origin_locid=3)
        assert [p.peer_id for p in ordered] == [2, 5, 1, 7]


class TestCheckIndex:
    def test_miss_returns_none(self):
        network, protocol = make_protocol()
        peer = network.peer(1)
        query = make_query(protocol, keywords=("kwnotcached",))
        assert protocol.check_index(peer, query) is None

    def test_hit_builds_response_and_registers_requestor(self):
        network, protocol = make_protocol()
        peer = network.peer(1)
        record = network.catalog.record(3)
        protocol.index_of(peer).put(record.filename, [ProviderEntry(9, 2)])
        query = make_query(protocol, origin=0, keywords=sorted(record.keywords)[:2])
        response = protocol.check_index(peer, query)
        assert response is not None
        assert response.file_id == 3
        assert any(p.peer_id == 9 for p in response.providers)
        # §4.1.2: the answering peer adds the requestor as a provider.
        cached = protocol.index_of(peer).providers_of(record.filename)
        assert any(p.peer_id == 0 for p in cached)

    def test_hit_with_only_origin_as_provider_returns_none(self):
        """An index whose only provider is the requestor itself cannot
        answer the requestor's own query."""
        network, protocol = make_protocol()
        peer = network.peer(1)
        record = network.catalog.record(3)
        protocol.index_of(peer).put(
            record.filename, [ProviderEntry(0, network.peer(0).locid)]
        )
        query = make_query(protocol, origin=0, keywords=sorted(record.keywords))
        assert protocol.check_index(peer, query) is None


class TestStoreResponse:
    def test_includes_holder_and_known_providers(self):
        network, protocol = make_protocol()
        peer = network.peer(1)
        record = network.catalog.record(3)
        peer.store.add(3)
        protocol.index_of(peer).put(record.filename, [ProviderEntry(9, 2)])
        query = make_query(protocol, origin=0, keywords=sorted(record.keywords))
        response = protocol.build_store_response(peer, query, 3)
        ids = {p.peer_id for p in response.providers}
        assert 1 in ids
        assert 9 in ids

    def test_holder_only_when_index_empty(self):
        network, protocol = make_protocol()
        peer = network.peer(1)
        record = network.catalog.record(3)
        peer.store.add(3)
        query = make_query(protocol, origin=0, keywords=sorted(record.keywords))
        response = protocol.build_store_response(peer, query, 3)
        assert [p.peer_id for p in response.providers] == [1]


class TestResponseTransit:
    def _response_for(self, network, file_id, origin=0, providers=None):
        from repro.overlay import QueryResponse

        record = network.catalog.record(file_id)
        return QueryResponse(
            query_id=1,
            origin=origin,
            origin_locid=network.peer(origin).locid,
            keywords=tuple(sorted(record.keywords)),
            file_id=file_id,
            filename=record.filename,
            providers=tuple(providers or [ProviderEntry(9, 2)]),
            responder=9,
            reverse_path=(origin,),
        )

    def test_matching_gid_caches_providers_and_requestor(self):
        network, protocol = make_protocol()
        record = network.catalog.record(3)
        group = file_group(record.filename, network.config.group_count)
        peer = next(p for p in network.peers if p.gid == group)
        response = self._response_for(network, 3, origin=0)
        protocol.on_response_transit(peer, response)
        cached = {p.peer_id for p in protocol.index_of(peer).providers_of(record.filename)}
        assert cached == {9, 0}

    def test_non_matching_gid_does_not_cache(self):
        network, protocol = make_protocol()
        record = network.catalog.record(3)
        group = file_group(record.filename, network.config.group_count)
        peer = next(p for p in network.peers if p.gid != group)
        protocol.on_response_transit(peer, self._response_for(network, 3))
        assert protocol.index_of(peer).providers_of(record.filename) == []

    def test_caching_updates_bloom_filter(self):
        network, protocol = make_protocol()
        record = network.catalog.record(3)
        group = file_group(record.filename, network.config.group_count)
        peer = next(p for p in network.peers if p.gid == group)
        protocol.on_response_transit(peer, self._response_for(network, 3))
        state = protocol.bloom_router.state_of(peer)
        assert state.cbf.bit_int() == vector_of(network, record.keywords)

    def test_eviction_removes_keywords_from_filter(self):
        network, protocol = make_protocol(index_capacity=1)
        group_of = lambda fid: file_group(  # noqa: E731
            network.catalog.filename(fid), network.config.group_count
        )
        # Two files in the same group cached at the same peer: the
        # second insert evicts the first.
        fids = [fid for fid in range(50) if group_of(fid) == 0][:2]
        assert len(fids) == 2
        peer = next(p for p in network.peers if p.gid == 0)
        for fid in fids:
            protocol.on_response_transit(peer, self._response_for(network, fid))
        state = protocol.bloom_router.state_of(peer)
        evicted_keywords = network.catalog.keywords(fids[0])
        kept_keywords = network.catalog.keywords(fids[1])
        assert state.cbf.bit_int() == vector_of(network, kept_keywords)
        assert kept_keywords != evicted_keywords


class TestRoutingTiers:
    def test_bf_match_preferred(self):
        network, protocol = make_protocol()
        peer = network.peer(0)
        neighbor = sorted(network.graph.neighbors(0))[0]
        protocol.bloom_router.state_of(peer).neighbor_filters[neighbor] = (
            vector_of(network, ["kw1", "kw2"])
        )
        query = make_query(protocol, origin=5, keywords=("kw1",), path=(5,))
        targets = protocol.select_forward_targets(peer, query)
        assert targets == [neighbor]

    def test_gid_fallback_when_no_bf_match(self):
        network, protocol = make_protocol()
        peer = network.peer(0)
        query = make_query(protocol, origin=5, keywords=("kw1",), path=(5,))
        from repro.protocols import query_group_guess

        group = query_group_guess(("kw1",), network.config.group_count)
        expected = [
            n for n in network.graph.neighbors_view(0)
            if n != 5 and network.peer(n).gid == group
        ]
        targets = protocol.select_forward_targets(peer, query)
        if expected:
            assert set(targets) == set(expected)
        else:
            # Highest-degree fallback, bounded by the configured fanout.
            assert 1 <= len(targets) <= network.config.fallback_fanout

    def test_last_hop_never_selected(self):
        network, protocol = make_protocol()
        peer = network.peer(0)
        for last_hop in network.graph.neighbors(0):
            query = make_query(
                protocol, origin=last_hop, keywords=("kw1",), path=(last_hop,)
            )
            assert last_hop not in protocol.select_forward_targets(peer, query)

    def test_location_aware_fallback_breaks_degree_ties_by_locid(self):
        """§6 extension: connectivity still leads; ties between equally
        connected neighbors break towards the requestor's locId."""
        network, protocol = make_protocol(protocol_cls=LocawareRoutingProtocol)
        found_case = False
        for peer in network.peers:
            neighbors = [
                n for n in network.graph.neighbors_view(peer.peer_id)
            ]
            if len(neighbors) <= network.config.fallback_fanout:
                continue
            # Look for an origin whose locId appears among this peer's
            # neighbors, with at least two distinct neighbor locIds at
            # the same degree (a real tie to break).
            by_degree = {}
            for n in neighbors:
                by_degree.setdefault(network.graph.degree(n), []).append(n)
            tied = [ns for ns in by_degree.values() if len(ns) >= 2]
            if not tied:
                continue
            tie_group = tied[0]
            locids = {network.peer(n).locid for n in tie_group}
            if len(locids) < 2:
                continue
            target_locid = network.peer(tie_group[0]).locid
            origin = next(
                (
                    pid
                    for pid in range(network.config.num_peers)
                    if network.peer(pid).locid == target_locid
                    and pid != peer.peer_id
                    and pid not in network.graph.neighbors_view(peer.peer_id)
                ),
                None,
            )
            if origin is None:
                continue
            found_case = True
            query = make_query(
                protocol, origin=origin, keywords=("zznomatch",), path=(origin,)
            )
            targets = protocol._fallback_neighbors(
                peer.peer_id,
                last_hop=origin,
                origin_locid=query.origin_locid,
            )
            # Within the chosen targets, any same-locId tie member must
            # not be displaced by a different-locId member of the same
            # degree class.
            for chosen in targets:
                for other in network.graph.neighbors_view(peer.peer_id):
                    if other in targets or other == origin:
                        continue
                    if network.graph.degree(other) == network.graph.degree(chosen):
                        # other lost the tie: chosen must be at least as
                        # good on the locId criterion.
                        chosen_match = network.peer(chosen).locid == target_locid
                        other_match = network.peer(other).locid == target_locid
                        assert chosen_match or not other_match
            break
        assert found_case, "no degree-tie case found on this seed"
