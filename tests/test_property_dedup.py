"""Duplicate suppression per query in flight, against per-peer windows.

The network keeps one entry per query — the peers that processed a copy
of it this session — from its issue until no copy of it can still
arrive (:meth:`~repro.overlay.network.P2PNetwork.open_query`): a copy
sent at ``t`` arrives by ``t + max_latency_s``, and the entry goes at
the first issue after that.  The oracle is what every peer used to
keep: a ``BoundedSet(2048)`` of the ids it processed, cleared when it
left (``tests/reference_seen.py``).

A hypothesis-drawn world replays random queries, random forwards (any
subset of a peer's other neighbors) and churn with sessions and
downtimes short against a query's flight, so peers leave and rejoin
while copies of the queries they processed are still arriving.  Every
copy that finds its destination alive must get the oracle's first-copy
/ duplicate decision; a copy that finds it dead is dropped by the
handler and counted, and the oracle's window is not consulted (the old
network never handed it over).  After every issue no entry may be left
whose flight ended before it.
Ending flights one ``max_latency_s`` early makes a delivery miss its
entry; leaving a peer in the entries when it leaves turns the first
copy it gets after a rejoin into a duplicate — both fail here.
"""

import random
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_seen import BoundedSet

from repro.experiments import small_config
from repro.overlay import ChurnProcess, NetworkBlueprint
from repro.protocols.base import SearchProtocol

NUM_PEERS = 60
NUM_FILES = 180


@lru_cache(maxsize=8)
def blueprint(seed, model):
    return NetworkBlueprint.build(small_config(seed=seed).replace(latency_model=model))


class OracleChecked(SearchProtocol):
    """Random forwarding; every delivery's decision held to the oracle."""

    name = "oracle-checked"
    forward_after_hit = True

    def __init__(self, network, rng, fanout):
        super().__init__(network)
        self.rng = rng
        self.fanout = fanout
        self.oracle = [BoundedSet(2048) for _ in network.peers]
        self.history = set()
        self.stats = {"first": 0, "duplicate": 0, "first_after_rejoin": 0,
                      "issued_with_a_flight_open": 0, "dead_at_arrival": 0}
        self._processed = False

    def select_forward_targets(self, peer, query):
        row = [
            n for n in self.network.graph.neighbors_view(peer.peer_id)
            if n != query.path[-1]
        ]
        return self.rng.sample(row, min(len(row), self.rng.randint(0, self.fanout)))

    def issue_query(self, origin, file_id, keywords):
        now = self.network.sim.now
        flights = self.network.query_flight_end
        if any(end >= now for end in flights.values()):
            self.stats["issued_with_a_flight_open"] += 1
        query_id = super().issue_query(origin, file_id, keywords)
        if query_id is not None:
            assert self.oracle[origin].add(query_id)
            self.history.add((origin, query_id))
            # A locally satisfied query is not issued, and sweeps nothing.
            assert all(end >= now for end in flights.values())
        return query_id

    def _process_query_at(self, peer, query):
        self._processed = True
        super()._process_query_at(peer, query)

    def _handle_query_message(self, dst, message):
        self._processed = False
        if not self.network.peer(dst).alive:
            dropped = self.network.dropped_dead_peer.value
            super()._handle_query_message(dst, message)
            assert not self._processed, (dst, message.query_id)
            assert self.network.dropped_dead_peer.value == dropped + 1
            self.stats["dead_at_arrival"] += 1
            return
        first = self.oracle[dst].add(message.query_id)
        super()._handle_query_message(dst, message)
        assert self._processed is first, (dst, message.query_id)
        if first:
            self.stats["first"] += 1
            if (dst, message.query_id) in self.history:
                self.stats["first_after_rejoin"] += 1
            self.history.add((dst, message.query_id))
        else:
            self.stats["duplicate"] += 1


class OracleChurn(ChurnProcess):
    """Churn that clears the leaving peer's oracle window too."""

    def __init__(self, network, oracle, *args):
        super().__init__(network, *args)
        self.oracle = oracle

    def _leave(self, peer_id):
        was_alive = self._network.peer(peer_id).alive
        super()._leave(peer_id)
        if was_alive:
            self.oracle[peer_id].clear()


def replay(seed, model, rng_seed, fanout, session_s, downtime_s, queries):
    """Run ``queries`` — ``(gap_s, origin, file_id, miss)`` — on a fresh
    instance of the world; returns the protocol (its stats and network)."""
    network = blueprint(seed, model).instantiate()
    rng = random.Random(rng_seed)
    protocol = OracleChecked(network, rng, fanout)
    churn = OracleChurn(network, protocol.oracle, session_s, downtime_s, rng)
    churn.start()
    catalog = network.catalog

    def issue(origin, file_id, miss):
        if network.peer(origin).alive:
            keywords = catalog.keywords(file_id)
            # A keyword no file has: no hit stops the copies early.
            protocol.issue_query(origin, file_id, keywords + ("absent",) * miss)

    at = 0.0
    for gap_s, origin, file_id, miss in queries:
        at += gap_s
        network.sim.schedule_at(at, issue, origin, file_id, miss)
    network.sim.run(until=at + network.config.query_timeout_s)
    return protocol


queries = st.lists(
    st.tuples(
        st.floats(0.0, 0.6),
        st.integers(0, NUM_PEERS - 1),
        st.integers(0, NUM_FILES - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.sampled_from((1, 2, 3)),
    model=st.sampled_from(("euclidean", "router")),
    rng_seed=st.integers(0, 2**32 - 1),
    fanout=st.integers(1, 4),
    session_s=st.floats(1.0, 20.0),
    downtime_s=st.floats(0.05, 2.0),
    queries=queries,
)
def test_every_delivery_decides_as_the_per_peer_windows(
    seed, model, rng_seed, fanout, session_s, downtime_s, queries
):
    replay(seed, model, rng_seed, fanout, session_s, downtime_s, queries)


def test_the_replay_reaches_every_case_the_table_must_get_right():
    """A fixed replay of the drawn kind: duplicates, a rejoined peer
    processing again a query it had processed before it left, issues
    while another query's copies are in flight, and copies that arrive
    at a peer that has left."""
    gaps = random.Random(5)
    plan = [
        (gaps.uniform(0.0, 0.6), gaps.randrange(NUM_PEERS),
         gaps.randrange(NUM_FILES), True)
        for _ in range(40)
    ]
    protocol = replay(1, "router", 11, 3, 4.0, 0.3, plan)
    stats = protocol.stats
    assert stats["duplicate"] > 0
    assert stats["first_after_rejoin"] > 0
    assert stats["issued_with_a_flight_open"] > 0
    assert stats["dead_at_arrival"] > 0
    # After the run the table holds only the queries whose flights had
    # not ended by the last issue.
    assert len(protocol.network.query_seen) < 40
