"""Property-based tests: per-hop forward-select against a reference copy.

``reference_select`` is the forward-select of Dicas, Dicas-Keys and
Locaware as it was written before the neighbor row, the keyword mask
and the Gid guess were hoisted out of the per-hop path: one
``neighbors_view`` call per rule, a per-keyword membership test per
stored filter, ``canonical_form`` + hash per hop, and a sort followed by
a stable sort for the last resort.  It reads the query's keywords only,
never the routing keys the live code reads from the query (its group
and Bloom mask, computed once at issue by ``routing_keys``).  It lives here, not in ``src/``, and
the live ``select_forward_targets`` must return exactly what it returns
— same targets, same order, same counters — on worlds that have been
through churn and Bloom pushes.

The reference reads the wiring itself (``reference_row``, ``degree``),
never the row tuple or the ranking ``OverlayGraph`` keeps per wiring,
and every world is selected on twice with more churn in between: the
first pass warms those caches for every live peer, so a cache that
outlives a rewiring answers the second pass differently from the
reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter
from repro.core import LocawareProtocol
from repro.experiments.runner import make_protocol
from repro.files import canonical_form
from repro.overlay import ChurnProcess, P2PNetwork, Query
from repro.protocols import DicasKeysProtocol, file_group, stable_hash
from repro.sim import SimulationConfig
from repro.workload import QueryWorkload

COUNTERS = (
    "bloom.membership_tests",
    "routing.bf_match",
    "routing.gid_match",
    "routing.fallback",
)


# -- the reference ---------------------------------------------------------


def reference_row(graph, peer_id):
    """The peer's neighbor row read off the wiring, bypassing the cache."""
    return list(graph._row(peer_id))


def reference_neighbors_matching(router, peer, keywords, exclude):
    keyword_list = list(keywords)
    state = router.state_of(peer)
    graph = router._network.graph
    matches = []
    tested = 0
    for neighbor in reference_row(graph, peer.peer_id):
        if neighbor == exclude:
            continue
        stored = state.neighbor_filters.get(neighbor)
        if stored is not None:
            tested += 1
            stored = BloomFilter.from_bit_int(stored, router._bits, router._hashes)
            if all(keyword in stored for keyword in keyword_list):
                matches.append(neighbor)
    if tested:
        router._network.metrics.counter("bloom.membership_tests").increment(tested)
    return matches


def reference_gid_matches(network, peer, last_hop, group):
    return [
        neighbor
        for neighbor in reference_row(network.graph, peer.peer_id)
        if neighbor != last_hop and network.peer(neighbor).gid == group
    ]


def reference_fallback(network, peer, last_hop, origin_locid=None):
    candidates = [
        neighbor
        for neighbor in sorted(reference_row(network.graph, peer.peer_id))
        if neighbor != last_hop
    ]
    if origin_locid is not None:
        candidates.sort(
            key=lambda n: (
                -network.graph.degree(n),
                network.peer(n).locid != origin_locid,
            )
        )
    else:
        candidates.sort(key=lambda n: -network.graph.degree(n))
    return candidates[: network.config.fallback_fanout]


def reference_select(protocol, peer, query):
    network = protocol.network
    groups = network.config.group_count
    last_hop = query.last_hop
    if isinstance(protocol, LocawareProtocol):
        matches = reference_neighbors_matching(
            protocol.bloom_router, peer, query.keywords, last_hop
        )
        if matches:
            network.metrics.counter("routing.bf_match").increment()
            return matches
        group = file_group(canonical_form(list(query.keywords)), groups)
        gid_matches = reference_gid_matches(network, peer, last_hop, group)
        if gid_matches:
            network.metrics.counter("routing.gid_match").increment()
            return gid_matches
        fallback = reference_fallback(
            network,
            peer,
            last_hop,
            query.origin_locid if protocol.location_aware_routing else None,
        )
        if fallback:
            network.metrics.counter("routing.fallback").increment()
        return fallback
    if isinstance(protocol, DicasKeysProtocol):
        group = stable_hash(min(query.keywords)) % groups
    else:
        group = file_group(canonical_form(list(query.keywords)), groups)
    return reference_gid_matches(
        network, peer, last_hop, group
    ) or reference_fallback(network, peer, last_hop)


# -- worlds ------------------------------------------------------------------


def churned_world(seed, protocol_name, until_s):
    """A small world simulated under queries, Bloom pushes and heavy churn.

    Stopping mid-run leaves what a hop really meets: promoted
    (copy-on-write) neighbor rows, peers rewired by a rejoin whose new
    neighbors hold no copy of their filter yet, copies that lag the
    cache, dead peers with no session state.
    """
    config = SimulationConfig.small(seed=seed).replace(
        query_rate_per_peer=0.05, bloom_update_period_s=10.0
    )
    network = P2PNetwork.build(config)
    protocol = make_protocol(protocol_name, network)
    protocol.start()
    ChurnProcess(network, 40.0, 15.0, network.streams.stream("churn")).start()
    QueryWorkload(network, protocol.issue_query, max_queries=400).start()
    network.sim.run(until=until_s)
    return network, protocol


def counter_values(network):
    return [network.metrics.counter(name).value for name in COUNTERS]


def counted(network, select, *args):
    before = counter_values(network)
    result = select(*args)
    return result, [b - a for a, b in zip(before, counter_values(network))]


@st.composite
def keyword_tuples(draw, catalog):
    """1–3 keywords of one file in any order; sometimes one nobody has."""
    record = catalog.record(draw(st.integers(0, catalog.num_files - 1)))
    chosen = draw(
        st.lists(
            st.sampled_from(sorted(record.keywords)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    if draw(st.integers(0, 4)) == 0:
        chosen.append("zzabsent")
    return tuple(chosen)


def check_every_live_peer(network, protocol, data):
    """Live select == reference select at every live peer; returns how
    many of them sit on a promoted (copy-on-write) neighbor row."""
    alive = [peer for peer in network.peers if peer.alive]
    mutated = 0
    for peer in alive:
        row = reference_row(network.graph, peer.peer_id)
        mutated += peer.peer_id in network.graph._mutated
        keywords = data.draw(keyword_tuples(network.catalog))
        origin = data.draw(st.sampled_from(alive)).peer_id
        # The three shapes of ``last_hop``: the peer itself (it is the
        # origin), one of its neighbors, a peer it has no link to.
        for last_hop in sorted({peer.peer_id, *row[:2], origin}):
            start = peer.peer_id if last_hop == peer.peer_id else origin
            path = (start,) if start == last_hop else (start, last_hop)
            group, keyword_mask = protocol.routing_keys(keywords)
            query = Query(
                query_id=1,
                origin=start,
                origin_locid=network.peer(start).locid,
                keywords=keywords,
                target_file=0,
                ttl=5,
                path=path,
                group=group,
                keyword_mask=keyword_mask,
            )
            # Live first: the reference builds missing Bloom state on
            # demand, which would hide the live code's no-state exit.
            live = counted(network, protocol.select_forward_targets, peer, query)
            reference = counted(network, reference_select, protocol, peer, query)
            assert live == reference
            assert last_hop not in live[0]
    return mutated


@settings(max_examples=24, deadline=None)
@given(
    seed=st.integers(1, 6),
    protocol_name=st.sampled_from(
        ["dicas", "dicas-keys", "locaware", "locaware+locrouting"]
    ),
    until_s=st.sampled_from([0.0, 25.0, 120.0]),
    data=st.data(),
)
def test_select_forward_targets_matches_reference(
    seed, protocol_name, until_s, data
):
    network, protocol = churned_world(seed, protocol_name, until_s)
    mutated = check_every_live_peer(network, protocol, data)
    if until_s >= 120.0:
        assert mutated, "churn promoted no neighbor row; the world is too calm"
    # The same network again, rewired under the caches the first pass
    # warmed (mean session 40 s: about half the peers leave in 30 s).
    graph = network.graph
    wiring = {pid: reference_row(graph, pid) for pid in graph.peers()}
    network.sim.run(until=until_s + 30.0)
    assert wiring != {pid: reference_row(graph, pid) for pid in graph.peers()}
    check_every_live_peer(network, protocol, data)


def test_locaware_worlds_exercise_every_rule():
    """The worlds above reach all three routing rules and meet neighbors
    with no stored filter copy (otherwise the property proves little)."""
    network, protocol = churned_world(3, "locaware", 120.0)
    seen = set()
    uncopied = 0
    for peer in network.peers:
        if not peer.alive:
            continue
        row = network.graph.neighbors_view(peer.peer_id)
        filters = protocol.bloom_router.state_of(peer).neighbor_filters
        uncopied += any(neighbor not in filters for neighbor in row)
        for file_id in range(0, network.catalog.num_files, 7):
            keywords = (min(network.catalog.keywords(file_id)),)
            group, keyword_mask = protocol.routing_keys(keywords)
            query = Query(
                query_id=1,
                origin=peer.peer_id,
                origin_locid=peer.locid,
                keywords=keywords,
                target_file=file_id,
                ttl=5,
                path=(peer.peer_id,),
                group=group,
                keyword_mask=keyword_mask,
            )
            _, moved = counted(network, protocol.select_forward_targets, peer, query)
            seen.update(name for name, delta in zip(COUNTERS, moved) if delta)
    assert seen == set(COUNTERS)
    assert uncopied
