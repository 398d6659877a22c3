"""The message handlers own the dead-at-arrival drop, as the trampoline did.

``P2PNetwork.send`` schedules the handler itself, for every destination,
and each handler's first step drops a copy whose destination is dead at
arrival.  Before, ``send`` scheduled ``P2PNetwork._deliver``, which made
that drop and called the handler only for a live destination
(``tests/reference_delivery.py`` keeps it).  Two checks hold the new
contract to the old one:

- every golden-ledger cell (``tests/test_golden_documents.py``: each
  protocol × baseline / churn-storm / flash-crowd × seeds 1, 2 × both
  latency models, and its churn and eviction slices), plus a storm that
  has copies reach dead peers in every protocol, gives the same full
  metric snapshot, outcomes, event count, end time and per-peer end
  state (kinds of protocol state, stored neighbor filters) run directly
  and through the trampoline.  The golden digests do not pin counters
  such as
  ``messages.dropped_dead_peer``, ``queries.duplicate_copies``,
  ``index.lookups`` or ``routing.*``; this does;
- every handler ``src/`` passes to ``send`` (found by watching ``send``
  in a stormy cell) drops a copy addressed to a dead peer: the drop is
  counted once, and no duplicate-suppression entry, index write,
  neighbor filter or further message is made.

A handler without its liveness check fails both.
"""

import copy
from functools import lru_cache

import pytest
from reference_delivery import reference_delivery
from test_golden_documents import BUCKET_WIDTH, CELLS, MAX_QUERIES, cell_name

from repro.core import BloomRouter
from repro.experiments import (
    PROTOCOL_REGISTRY,
    make_protocol,
    run_protocol,
    small_config,
)
from repro.experiments.grid import ScenarioSpec
from repro.overlay import NetworkBlueprint, P2PNetwork
from repro.protocols.base import SearchProtocol
from repro.scenarios import make_scenario

#: The handlers ``src/`` passes to ``P2PNetwork.send``.
MESSAGE_HANDLERS = {
    SearchProtocol._handle_query_message,
    SearchProtocol._handle_response_message,
    BloomRouter._handle_update,
}

#: A storm over the whole cell: copies reach dead peers in every protocol.
STORM = make_scenario(
    "churn-storm", storm_time_s=1.0, storm_session_s=2.0,
    storm_downtime_s=2.0, storm_duration_s=200.0,
)
#: A seed whose storm cells drop copies in every protocol (the storm's
#: leaves are drawn: seed 1 makes 6, seed 5 makes 99).
STORM_SEED = 5
STORM_CELLS = [
    (model, protocol, "storm", STORM_SEED)
    for model in ("euclidean", "router")
    for protocol in sorted(PROTOCOL_REGISTRY)
]


def cell_config(model, seed):
    return small_config(seed=seed).replace(
        query_rate_per_peer=0.02, latency_model=model
    )


def peer_state(peer):
    """What a peer holds at the end of a cell: its kinds of protocol
    state, and its copies of its neighbors' Bloom filters."""
    bloom = peer.protocol_state.get("locaware_bloom")
    filters = sorted(bloom.neighbor_filters.items()) if bloom is not None else None
    return sorted(peer.protocol_state), filters


def run_cell(model, protocol, scenario, seed, overrides=()):
    networks = []
    instantiate = NetworkBlueprint.instantiate

    def keeping(blueprint, *args, **kwargs):
        networks.append(instantiate(blueprint, *args, **kwargs))
        return networks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetworkBlueprint, "instantiate", keeping)
        run = run_protocol(
            cell_config(model, seed).replace(**dict(overrides)),
            protocol,
            max_queries=MAX_QUERIES,
            bucket_width=BUCKET_WIDTH,
            scenario=(
                STORM if scenario == "storm" else ScenarioSpec.parse(scenario).make()
            ),
            collect_telemetry=False,
        )
    (network,) = networks
    return {
        "metrics": run.metric_snapshot,
        "outcomes": [repr(outcome) for outcome in run.outcomes],
        "events_processed": run.events_processed,
        "sim_time_s": run.sim_time_s,
        "peer_state": [peer_state(peer) for peer in network.peers],
    }


def run_through_trampoline(*cell):
    with pytest.MonkeyPatch.context() as mp:
        reference_delivery(mp)
        return run_cell(*cell)


class TestHandlersDropAsTheTrampolineDid:
    @pytest.mark.parametrize(
        "cell", CELLS + STORM_CELLS, ids=lambda cell: cell_name(*cell)
    )
    def test_a_cell_runs_as_through_the_trampoline(self, cell):
        assert run_cell(*cell) == run_through_trampoline(*cell)

    def test_the_trampoline_is_the_one_that_runs(self):
        """Guard: under the patch no handler ever sees a dead peer —
        otherwise the comparison above compares the new code with
        itself."""
        arrivals = []
        handle = SearchProtocol._handle_query_message

        def watching(protocol, dst, message):
            arrivals.append(protocol.network.peer(dst).alive)
            handle(protocol, dst, message)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SearchProtocol, "_handle_query_message", watching)
            direct = run_cell("router", "flooding", "storm", STORM_SEED)
            assert False in arrivals
            arrivals.clear()
            reference_delivery(mp)
            assert run_cell("router", "flooding", "storm", STORM_SEED) == direct
        assert arrivals and False not in arrivals

    def test_an_update_in_flight_to_a_peer_that_leaves(self):
        """The storms deliver about one Bloom update in a hundred cells to
        a dead peer (copies fly for milliseconds), so this one is
        scripted: a push, and one receiver dies before it lands."""

        def push_to_a_leaving_neighbor():
            network = blueprint().instantiate()
            router = BloomRouter(network)
            router.filename_cached(network.peer(0), ("kwa", "kwb", "kwc"))
            router._push_updates(0)
            leaving = network.graph.neighbors_view(0)[0]
            network.peer(leaving).alive = False
            network.sim.run()
            return (
                network.metrics.snapshot(),
                [peer_state(peer) for peer in network.peers],
            )

        direct = push_to_a_leaving_neighbor()
        with pytest.MonkeyPatch.context() as mp:
            reference_delivery(mp)
            assert push_to_a_leaving_neighbor() == direct
        assert direct[0]["counter.messages.dropped_dead_peer"] == 1

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_copies_reach_dead_peers(self, protocol):
        """Not vacuous: every protocol drops copies in the storm cells."""
        dropped = [
            run_cell(model, protocol, "storm", STORM_SEED)["metrics"].get(
                "counter.messages.dropped_dead_peer", 0
            )
            for model in ("euclidean", "router")
        ]
        assert min(dropped) > 0


# -- each handler, one copy to a dead peer -----------------------------------


@lru_cache(maxsize=None)
def blueprint():
    return NetworkBlueprint.build(cell_config("router", STORM_SEED))


@lru_cache(maxsize=None)
def sent_messages(protocol):
    """handler function → ``(src, dst, payload)`` of its first message in
    a stormy cell: every handler the protocol passes to ``send``."""
    first = {}
    send = P2PNetwork.send

    def recording(network, src, dsts, handler, payload, *args, **kwargs):
        if dsts:
            first.setdefault(handler.__func__, (src, dsts[0], payload))
        return send(network, src, dsts, handler, payload, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P2PNetwork, "send", recording)
        run_protocol(
            blueprint().config, protocol, max_queries=MAX_QUERIES,
            bucket_width=BUCKET_WIDTH, scenario=STORM, blueprint=blueprint(),
            collect_telemetry=False,
        )
    return first


def deliver_once(handler, protocol_name, alive):
    """Send a handler's recorded message again, on a fresh instance of the
    world, to a destination ``alive`` or dead at arrival; returns what
    changed: the metric deltas, and whether a duplicate-suppression entry,
    protocol state or a further event appeared."""
    src, dst, payload = sent_messages(protocol_name)[handler]
    network = blueprint().instantiate()
    protocol = make_protocol(protocol_name, network)
    owner = protocol.bloom_router if handler is BloomRouter._handle_update else protocol
    if hasattr(payload, "query_id"):
        network.open_query(payload.query_id, payload.origin)
    network.peer(dst).alive = alive
    seen = copy.deepcopy(network.query_seen)
    before = network.metrics.snapshot()
    network.send(src, (dst,), handler.__get__(owner), payload)
    network.sim.run()
    after = network.metrics.snapshot()
    deltas = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    return {
        "metrics": deltas,
        "seen_changed": network.query_seen != seen,
        "state_made": any(peer.protocol_state for peer in network.peers),
        "events_after": network.sim.events_processed - 1,
    }


class TestEveryHandlerDropsACopyToADeadPeer:
    def test_the_handlers_are_the_ones_src_passes_to_send(self):
        assert set(sent_messages("locaware")) == MESSAGE_HANDLERS
        assert set(sent_messages("flooding")) == MESSAGE_HANDLERS - {
            BloomRouter._handle_update
        }

    @pytest.mark.parametrize(
        "handler", sorted(MESSAGE_HANDLERS, key=lambda h: h.__qualname__),
        ids=lambda handler: handler.__qualname__,
    )
    def test_the_drop_is_counted_once_and_changes_nothing(self, handler):
        dead = deliver_once(handler, "locaware", alive=False)
        assert dead == {
            "metrics": {
                "counter.messages.message": 1,
                "counter.messages.total": 1,
                "counter.messages.dropped_dead_peer": 1,
            },
            "seen_changed": False,
            "state_made": False,
            "events_after": 0,
        }

    @pytest.mark.parametrize(
        "handler", sorted(MESSAGE_HANDLERS, key=lambda h: h.__qualname__),
        ids=lambda handler: handler.__qualname__,
    )
    def test_alive_the_same_copy_changes_something(self, handler):
        """Not vacuous: what the dead case must leave alone, the live one
        touches."""
        live = deliver_once(handler, "locaware", alive=True)
        assert "counter.messages.dropped_dead_peer" not in live["metrics"]
        assert live["seen_changed"] or live["state_made"] or live["events_after"]
