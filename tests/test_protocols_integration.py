"""Integration tests: the four protocols on controlled small networks."""

import math

import pytest

from repro.core import LocawareProtocol
from repro.overlay import P2PNetwork
from repro.protocols import (
    DicasProtocol,
    FloodingProtocol,
    file_group,
)
from repro.sim import SimulationConfig


def make_network(seed=5, **overrides):
    config = SimulationConfig.small(seed=seed)
    if overrides:
        config = config.replace(**overrides)
    return P2PNetwork.build(config)


def clear_all_stores(network):
    for peer in network.peers:
        peer.store.clear()


def place_file(network, peer_id, file_id):
    network.peer(peer_id).store.add(file_id)


def far_peer(network, origin):
    """A peer several overlay hops from origin (BFS distance >= 2)."""
    visited = {origin} | network.graph.neighbors(origin)
    candidates = [p for p in range(network.config.num_peers) if p not in visited]
    return candidates[-1]


class TestFloodingBehaviour:
    def test_finds_remote_file(self):
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        origin, holder = 0, far_peer(network, 0)
        place_file(network, holder, 7)
        keywords = tuple(sorted(network.catalog.keywords(7)))
        qid = protocol.issue_query(origin, 7, keywords)
        assert qid is not None
        network.sim.run()
        assert len(protocol.outcomes) == 1
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.provider == holder

    def test_download_distance_is_rtt_to_provider(self):
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        origin, holder = 0, far_peer(network, 0)
        place_file(network, holder, 7)
        protocol.issue_query(origin, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        outcome = protocol.outcomes[0]
        assert outcome.download_distance_ms == pytest.approx(
            network.underlay.rtt_ms(origin, holder)
        )

    def test_natural_replication(self):
        """§3.1: the requestor becomes a provider after downloading."""
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        origin, holder = 0, far_peer(network, 0)
        place_file(network, holder, 7)
        protocol.issue_query(origin, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        assert network.peer(origin).store.contains(7)

    def test_missing_file_fails_with_traffic(self):
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        qid = protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        outcome = protocol.outcomes[0]
        assert not outcome.success
        assert math.isnan(outcome.download_distance_ms)
        assert outcome.messages > 0

    def test_flood_reaches_wide_scope(self):
        """With TTL 7 on a 60-peer overlay the flood must reach most
        peers — message count far above one path's worth."""
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        assert protocol.outcomes[0].messages > 50

    def test_locally_satisfiable_query_skips_network(self):
        network = make_network()
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        place_file(network, 0, 7)
        qid = protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        assert qid is None
        assert protocol.local_satisfactions == 1
        assert protocol.outcomes == []

    def test_ttl_bounds_scope(self):
        """TTL 1 floods only the direct neighborhood."""
        network = make_network(ttl=1)
        protocol = FloodingProtocol(network)
        clear_all_stores(network)
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        assert protocol.outcomes[0].messages <= network.graph.degree(0)


class TestDicasBehaviour:
    def test_caches_on_reverse_path_at_matching_gid(self):
        # Seed 2: the restricted route reaches the single replica and
        # at least one reverse-path peer matches the filename's gid.
        network = make_network(seed=2)
        protocol = DicasProtocol(network)
        clear_all_stores(network)
        origin, holder = 0, far_peer(network, 0)
        place_file(network, holder, 7)
        keywords = tuple(sorted(network.catalog.keywords(7)))
        filename = network.catalog.filename(7)
        protocol.issue_query(origin, 7, keywords)
        network.sim.run()
        assert protocol.outcomes[0].success
        group = file_group(filename, network.config.group_count)
        cached_peers = [
            p for p in network.peers if filename in protocol.index_of(p).filenames()
        ]
        for peer in cached_peers:
            assert peer.gid == group

    def test_narrow_traffic(self):
        network = make_network()
        flooding = FloodingProtocol(make_network())
        protocol = DicasProtocol(network)
        clear_all_stores(network)
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run()
        # Bounded by fanout^ttl-ish growth, far below flooding scope.
        assert protocol.outcomes[0].messages < 60

    def test_index_hit_answers_without_provider_contact(self):
        """A cached index lets a nearby peer answer for a remote provider.

        Every non-origin peer is seeded so the very first hop answers
        regardless of which neighbors Gid routing picks.
        """
        network = make_network()
        protocol = DicasProtocol(network)
        clear_all_stores(network)
        filename = network.catalog.filename(7)
        provider_id = far_peer(network, 0)
        place_file(network, provider_id, 7)
        from repro.overlay import ProviderEntry

        for peer in network.peers:
            if peer.peer_id != 0:
                protocol.index_of(peer).put(filename, [ProviderEntry(provider_id, None)])
        keywords = tuple(sorted(network.catalog.keywords(7)))
        protocol.issue_query(0, 7, keywords)
        network.sim.run()
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.provider == provider_id
        # First hop answered: a couple of query copies plus one response hop.
        assert outcome.messages <= 2 * network.config.fallback_fanout + 2


class TestLocawareBehaviour:
    def test_requestor_registered_as_provider_in_caches(self):
        """§4.1.2: reverse-path caches record the requestor as a new
        provider.  (Seed 2 chosen so a reverse-path peer matches the
        filename's gid.)"""
        network = make_network(seed=2)
        protocol = LocawareProtocol(network)
        clear_all_stores(network)
        origin, holder = 0, far_peer(network, 0)
        place_file(network, holder, 7)
        filename = network.catalog.filename(7)
        protocol.issue_query(origin, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run(until=network.sim.now + 60.0)
        cached_anywhere = []
        for peer in network.peers:
            providers = protocol.index_of(peer).providers_of(filename)
            cached_anywhere.extend(p.peer_id for p in providers)
        assert cached_anywhere, "seed 2 must produce at least one cached entry"
        assert origin in cached_anywhere

    def test_origin_index_hit_costs_zero_messages(self):
        network = make_network()
        protocol = LocawareProtocol(network)
        clear_all_stores(network)
        provider_id = far_peer(network, 0)
        place_file(network, provider_id, 7)
        filename = network.catalog.filename(7)
        from repro.overlay import ProviderEntry

        protocol.index_of(network.peer(0)).put(
            filename, [ProviderEntry(provider_id, network.peer(provider_id).locid)]
        )
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run(until=network.sim.now + 60.0)
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.provider == provider_id
        # locId matched (entry locid == provider's locid; origin locid may
        # differ => probes may be charged). Only assert no query/response hops.
        snap = network.metrics.snapshot()
        assert snap.get("counter.messages.query", 0.0) == 0.0
        assert snap.get("counter.messages.response", 0.0) == 0.0

    def test_same_locid_provider_preferred(self):
        network = make_network(seed=2)
        protocol = LocawareProtocol(network)
        clear_all_stores(network)
        origin_locid = network.peer(0).locid
        same_loc = [
            p.peer_id
            for p in network.peers
            if p.locid == origin_locid and p.peer_id != 0
        ]
        diff_loc = [p.peer_id for p in network.peers if p.locid != origin_locid]
        assert same_loc, "seed 2 must provide a same-locId peer"
        near, distant = same_loc[0], diff_loc[0]
        place_file(network, near, 7)
        place_file(network, distant, 7)
        filename = network.catalog.filename(7)
        from repro.overlay import ProviderEntry

        protocol.index_of(network.peer(0)).put(
            filename,
            [
                ProviderEntry(distant, network.peer(distant).locid),
                ProviderEntry(near, network.peer(near).locid),
            ],
        )
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run(until=network.sim.now + 60.0)
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.provider == near

    def test_stale_provider_falls_back_to_alternative(self):
        """Multi-provider indexes save queries whose first choice died."""
        network = make_network()
        protocol = LocawareProtocol(network)
        clear_all_stores(network)
        dead, live = 30, far_peer(network, 0)
        place_file(network, live, 7)  # dead peer has no file
        filename = network.catalog.filename(7)
        from repro.overlay import ProviderEntry

        protocol.index_of(network.peer(0)).put(
            filename,
            [
                ProviderEntry(live, network.peer(live).locid),
                ProviderEntry(dead, network.peer(0).locid),  # looks perfect
            ],
        )
        protocol.issue_query(0, 7, tuple(sorted(network.catalog.keywords(7))))
        network.sim.run(until=network.sim.now + 60.0)
        outcome = protocol.outcomes[0]
        assert outcome.success
        assert outcome.provider == live


class TestWorkloadFairness:
    def test_identical_workload_across_protocols(self):
        """Same seed ⇒ the same query stream hits every protocol."""
        from repro.workload import QueryWorkload

        streams = []
        for cls in (FloodingProtocol, DicasProtocol, LocawareProtocol):
            network = make_network(seed=21)
            protocol = cls(network)
            issued = []
            workload = QueryWorkload(
                network,
                lambda o, f, k: issued.append((o, f, k)) or protocol.issue_query(o, f, k),
                max_queries=30,
            )
            workload.start()
            network.sim.run(until=network.sim.now + 2000.0)
            streams.append(issued)
        assert streams[0] == streams[1] == streams[2]
