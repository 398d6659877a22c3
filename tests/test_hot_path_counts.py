"""Deterministic count gates on the hot paths (counts, not seconds).

What a hop may cost is pinned by counting calls, which repeat exactly,
instead of timing them, which does not on a shared host:

- a last-resort hop reads the overlay's ranking of its neighbor row; the
  ranking asks ``OverlayGraph.degree`` once per row member when it is
  built and is built once per wiring, so a cell without churn makes at
  most ``2 * num_edges`` ``degree`` calls however many hops it routes;
- under churn the rankings a rewiring invalidates are rebuilt, which
  still costs fewer ``degree`` calls than ranking per hop (what the
  tests-only reference graph does) — with byte-identical results;
- protocol state follows use: after a calm cell the peers that hold
  any are at most the index inserts plus the Bloom updates sent, not
  the population;
- a forward is one send: a cell's ``P2PNetwork.send`` calls are its
  non-empty forwards plus its response hops plus its Bloom pushes, and
  no message reaches the heap through ``Simulator.schedule_at``;
- every peer's Bloom tick shares one engine entry: starting the router
  queues one event whatever the population, stopping it leaves no live
  tick, and a Locaware cell's queue peak is its traffic's, within a few
  entries of the Dicas cell on the same world — not its traffic's plus
  one entry per peer;
- a hash memo hashes each key once per cell: within a 600-peer
  Locaware cell each memo's misses are the distinct filenames, keyword
  tuples and keywords it was asked for, so scoping the memos to a cell
  costs no hit inside it;
- the two per-hop messages are tuples: immutable for real, hashable,
  and their copies equal field-by-field construction;
- a world is drawn, not called: building one calls
  ``random.Random.sample`` and ``randrange`` no time, and instantiating
  it fills each peer's store with one ``FileStore.add_many`` and no
  ``add``;
- a stored cell costs a warm ``GridRunner.run`` one key, one read and
  one parse: one ``doc_get_raw`` and no ``doc_has`` per cell, one config
  dict and one encoded key payload per row, one key check per store
  call, and no thread.
"""

import inspect
import random
import threading

import pytest
from reference_graph import DictOverlayGraph
from test_determinism import run_fingerprint
from test_golden_worlds import world_config
from test_protocol_groups import HASH_MEMOS, clear_hash_memos, run_cell_watching_memos

import repro.experiments.grid as grid_module
import repro.overlay.blueprint as blueprint_module
import repro.results.backends as backends_module
import repro.results.claims as claims_module
import repro.results.store as store_module
from repro.bloom.delta import DeltaCodec
from repro.core import BloomRouter
from repro.experiments import (
    PROTOCOL_REGISTRY,
    GridRunner,
    GridSpec,
    drive_until_settled,
    make_protocol,
    run_protocol,
    small_config,
)
from repro.files import FileStore
from repro.overlay import (
    NetworkBlueprint,
    OverlayGraph,
    P2PNetwork,
    ProviderEntry,
    Query,
    QueryResponse,
)
from repro.protocols.base import SearchProtocol
from repro.results import ClaimStore, ResultStore
from repro.sim import SimulationConfig, Simulator
from repro.workload import QueryWorkload

CONFIG = small_config(seed=5).replace(query_rate_per_peer=0.02)
QUERIES = 60
ROUTED = sorted(set(PROTOCOL_REGISTRY) - {"flooding"})


def count_calls(mp, owner, name, only=lambda *args: True):
    """Wrap ``owner.name`` for the life of ``mp``; returns the tally."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += only(*args)
        return original(*args, **kwargs)

    mp.setattr(owner, name, counted)
    return calls


def count_degree_calls(mp, graph_cls):
    return count_calls(mp, graph_cls, "degree")


class TestDegreeCalls:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_a_calm_cell_ranks_each_row_at_most_once(self, protocol):
        blueprint = NetworkBlueprint.build(CONFIG)
        plain = run_protocol(
            CONFIG, protocol, max_queries=QUERIES, bucket_width=30, blueprint=blueprint
        )
        with pytest.MonkeyPatch.context() as mp:
            calls = count_degree_calls(mp, OverlayGraph)
            counted = run_protocol(
                CONFIG, protocol, max_queries=QUERIES, bucket_width=30,
                blueprint=blueprint,
            )
        assert counted.metric_snapshot == plain.metric_snapshot
        if protocol == "flooding":
            assert calls[0] == 0
        elif protocol == "locaware+locrouting":
            # The §6 variant re-sorts its last resort per hop by
            # (-degree, locId match, id): it reads degrees by design.
            assert calls[0] > 2 * blueprint.graph.num_edges
        else:
            # > 0: the last resort was reached, so the bound is not vacuous.
            assert 0 < calls[0] <= 2 * blueprint.graph.num_edges

    @pytest.mark.parametrize("protocol", ROUTED)
    def test_churn_rebuilds_cost_less_than_ranking_per_hop(self, protocol):
        def storm():
            return run_protocol(
                CONFIG, protocol, max_queries=QUERIES, bucket_width=30,
                scenario="churn-storm",
            )

        with pytest.MonkeyPatch.context() as mp:
            cached_calls = count_degree_calls(mp, OverlayGraph)
            cached = storm()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blueprint_module, "OverlayGraph", DictOverlayGraph)
            per_hop_calls = count_degree_calls(mp, DictOverlayGraph)
            per_hop = storm()
        assert run_fingerprint(cached) == run_fingerprint(per_hop)
        assert cached.metric_snapshot["counter.churn.leaves"] > 0
        assert 0 < cached_calls[0] < per_hop_calls[0]


class TestAWorldIsDrawnNotCalled:
    """A build draws its randrange / sample results from getrandbits
    inline, and an initial store is filled in one pass."""

    PEERS = 600

    def test_a_600_peer_build_calls_neither_sample_nor_randrange(self):
        config = world_config("router", self.PEERS, seed=11)
        with pytest.MonkeyPatch.context() as mp:
            samples = count_calls(mp, random.Random, "sample")
            randranges = count_calls(mp, random.Random, "randrange")
            # The tally is live: the wrappers see a call made through them.
            random.Random(1).sample(range(9), 2)
            random.Random(1).randrange(9)
            assert (samples[0], randranges[0]) == (1, 1)
            NetworkBlueprint.build(config)
        assert (samples[0], randranges[0]) == (1, 1)

    def test_instantiate_fills_each_store_with_one_add_many(self):
        blueprint = NetworkBlueprint.build(world_config("router", self.PEERS, seed=11))
        with pytest.MonkeyPatch.context() as mp:
            bulk = count_calls(mp, FileStore, "add_many")
            single = count_calls(mp, FileStore, "add")
            network = blueprint.instantiate()
        assert (bulk[0], single[0]) == (self.PEERS, 0)
        assert [peer.store.file_ids() for peer in network.peers] == [
            set(shares) for shares in blueprint.initial_shares
        ]


class TestAForwardIsOneSend:
    """One ``P2PNetwork.send`` per fan-out, and no message event through
    ``Simulator.schedule_at``."""

    @pytest.mark.parametrize("protocol", ["flooding", "locaware"])
    def test_sends_are_forwards_response_hops_and_pushes(self, protocol):
        assert CONFIG.num_peers == 60
        blueprint = NetworkBlueprint.build(CONFIG)
        plain = run_protocol(
            CONFIG, protocol, max_queries=QUERIES, bucket_width=30, blueprint=blueprint
        )
        protocol_cls = PROTOCOL_REGISTRY[protocol]
        forwards = []
        select = protocol_cls.select_forward_targets

        def recording_select(self, peer, query):
            targets = select(self, peer, query)
            forwards.append(len(targets))
            return targets

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol_cls, "select_forward_targets", recording_select)
            sends = count_calls(mp, P2PNetwork, "send")
            hops = count_calls(
                mp, SearchProtocol, "_route_response",
                only=lambda _self, _sender, response: response.next_hop() is not None,
            )
            pushes = count_calls(mp, DeltaCodec, "encode")
            schedules = count_calls(mp, Simulator, "schedule_at")
            message_schedules = count_calls(
                mp, Simulator, "schedule_at",
                only=lambda _sim, _time, callback, *args: (
                    getattr(callback, "__func__", None) is P2PNetwork._deliver
                ),
            )
            counted = run_protocol(
                CONFIG, protocol, max_queries=QUERIES, bucket_width=30,
                blueprint=blueprint,
            )
        assert counted.metric_snapshot == plain.metric_snapshot
        non_empty = sum(1 for fan_out in forwards if fan_out)
        assert sends[0] == non_empty + hops[0] + pushes[0]
        assert message_schedules[0] == 0 < schedules[0]
        snapshot = counted.metric_snapshot
        assert snapshot["counter.messages.query"] == sum(forwards)
        assert snapshot["counter.messages.response"] == hops[0]
        if protocol == "flooding":
            assert pushes[0] == 0
            # Fan-outs of more than one: fewer calls than messages.
            assert sends[0] < snapshot["counter.messages.total"]
        else:
            assert pushes[0] > 0  # the push term is not vacuous


class TestStateFollowsUse:
    PEERS = 600
    QUERIES = 60  # the ``idle_6k`` shape: one query per ten peers

    @pytest.mark.parametrize("protocol", ROUTED)
    def test_a_calm_cell_makes_state_where_it_cached_or_heard(self, protocol):
        config = world_config(
            "router", self.PEERS, seed=11, query_rate_per_peer=0.02
        )
        network = NetworkBlueprint.build(config).instantiate()
        protocol = make_protocol(protocol, network)
        protocol.start()
        workload = QueryWorkload(
            network, protocol.issue_query, max_queries=self.QUERIES
        )
        workload.start()
        drive_until_settled(network, protocol, workload, self.QUERIES)
        holders = sum(1 for peer in network.peers if peer.protocol_state)
        counter = network.metrics.counter
        writes = (
            counter("index.inserts").value + counter("messages.bloom_update").value
        )
        # > 0: something was cached, so the bound is not vacuous.
        assert 0 < holders <= writes < self.PEERS


class TestBloomTicksShareOneEntry:
    @pytest.mark.parametrize("peers", [60, 600])
    def test_start_queues_one_event_and_stop_leaves_no_live_tick(self, peers):
        config = world_config("router", peers, seed=11)
        network = NetworkBlueprint.build(config).instantiate()
        sim, router = network.sim, BloomRouter(network)
        assert sim.pending_events == 0
        router.start()
        # One heap entry; one sequence number reserved per peer.
        assert (sim.pending_events, sim._seq) == (1, peers)
        sim.run(until=2.5 * network.config.bloom_update_period_s)
        assert sim.events_processed >= 2 * peers
        router.stop()
        assert sim.peek_time() is None and sim.pending_events == 0
        assert sim.run(until=10 * network.config.bloom_update_period_s) == 0

    def test_a_locaware_queue_peaks_with_its_traffic_not_its_population(self):
        config = world_config("router", 600, seed=11, query_rate_per_peer=0.02)
        blueprint = NetworkBlueprint.build(config)
        peaks = {
            protocol: run_protocol(
                config, protocol, max_queries=200, bucket_width=30,
                blueprint=blueprint,
            ).telemetry.engine["queue_peak"]
            for protocol in ("dicas", "locaware")
        }
        # Measured: 430 and 431; with a heap entry per peer Locaware's
        # peak read 1030.
        assert peaks["locaware"] <= peaks["dicas"] + 10


class TestHashMemosHitWithinACell:
    def test_misses_are_the_distinct_keys_asked(self):
        config = world_config("router", 600, seed=11, query_rate_per_peer=0.02)
        asked = {name: set() for name in HASH_MEMOS}
        clear_hash_memos()
        with pytest.MonkeyPatch.context() as mp:
            for name, (module, memo) in HASH_MEMOS.items():

                def asking(*args, memo=memo, keys=asked[name]):
                    keys.add(args)
                    return memo(*args)

                asking.cache_clear = memo.cache_clear  # the cell's end clears
                mp.setattr(module, name, asking)
            _, at_end = run_cell_watching_memos(mp, config, "locaware", 300)
        for name, keys in asked.items():
            assert at_end[name].misses == len(keys), name
            # Not vacuous: the cell asks again for what it hashed.
            assert at_end[name].hits > 0, name


class TestMessagesAreTuples:
    QUERY = Query(
        query_id=1, origin=10, origin_locid=3, keywords=("kw1", "kw2"),
        target_file=42, ttl=7, path=(10, 11),
    )
    RESPONSE = QueryResponse(
        query_id=1, origin=10, origin_locid=3, keywords=("kw1",), file_id=42,
        filename="kw1-kw2-kw3", providers=(ProviderEntry(5, 2),), responder=5,
        reverse_path=(7, 10),
    )

    @pytest.mark.parametrize("message", [QUERY, RESPONSE])
    def test_no_field_can_be_assigned(self, message):
        for name in message._fields:
            with pytest.raises(AttributeError):
                setattr(message, name, None)
        with pytest.raises(AttributeError):
            message.brand_new = 1

    def test_copies_equal_field_by_field_construction(self):
        q, r = self.QUERY, self.RESPONSE
        assert q.forwarded(20) == Query(
            query_id=q.query_id, origin=q.origin, origin_locid=q.origin_locid,
            keywords=q.keywords, target_file=q.target_file, ttl=q.ttl - 1,
            path=q.path + (20,),
        )
        assert type(q.forwarded(20)) is Query and q.forwarded(20).last_hop == 20
        assert r.advanced() == QueryResponse(
            query_id=r.query_id, origin=r.origin, origin_locid=r.origin_locid,
            keywords=r.keywords, file_id=r.file_id, filename=r.filename,
            providers=r.providers, responder=r.responder,
            reverse_path=r.reverse_path[1:],
        )
        assert type(r.advanced()) is QueryResponse and r.advanced().next_hop() == 10

    def test_messages_stay_hashable(self):
        assert len({self.QUERY, self.QUERY.forwarded(20), self.QUERY}) == 2
        assert len({self.RESPONSE, self.RESPONSE.advanced()}) == 2


class StoreCallCounter:
    """The key checks each public store call pays for.

    A public store call is a call from outside of a ``ResultStore`` or
    ``ClaimStore`` method that takes a ``key``; a facade method calling
    another one (``get`` quarantining what it could not parse) is one
    call, not two.  ``per_call`` holds one ``(name, checks)`` per call.
    """

    def __init__(self, mp):
        self.per_call = []
        self._depth = 0
        for cls in (ResultStore, ClaimStore):
            for name, method in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(method):
                    continue
                if "key" in inspect.signature(method).parameters:
                    mp.setattr(cls, name, self._public(cls, method))
        for module in (backends_module, store_module, claims_module):
            mp.setattr(module, "check_key", self._check(module.check_key))

    def _public(self, cls, method):
        def public(*args, **kwargs):
            if self._depth == 0:
                self.per_call.append([f"{cls.__name__}.{method.__name__}", 0])
            self._depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self._depth -= 1

        return public

    def _check(self, check_key):
        def counted(key):
            assert self._depth > 0, "a key check outside of any store call"
            self.per_call[-1][1] += 1
            return check_key(key)

        return counted


@pytest.mark.parametrize("backend", ["json", "sqlite"])
class TestAStoredCellCostsOneKeyOneReadOneParse:
    PROTOCOLS = ("flooding", "locaware")
    SCENARIOS = ("baseline", "flash-crowd")
    SEEDS = (1, 2)
    CELLS = len(PROTOCOLS) * len(SCENARIOS) * len(SEEDS)
    ROWS = len(SCENARIOS) * len(SEEDS)

    def spec(self):
        return GridSpec(
            base_config=CONFIG, protocols=self.PROTOCOLS, scenarios=self.SCENARIOS,
            seeds=self.SEEDS, max_queries=8,
        )

    def test_warm_run(self, tmp_path, backend):
        def open_store():
            return ResultStore(tmp_path / "store", backend=backend)

        cold = GridRunner(self.spec(), store=open_store()).run()
        assert (cold.executed, cold.cached) == (self.CELLS, 0)

        store, spec = open_store(), self.spec()
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            backend_cls = type(store.backend)
            reads = count_calls(mp, backend_cls, "doc_get_raw")
            probes = count_calls(mp, backend_cls, "doc_has")
            configs = count_calls(mp, SimulationConfig, "to_dict")
            payloads = count_calls(
                mp, grid_module, "canonical_json",
                only=lambda payload: isinstance(payload, dict),
            )
            started = count_calls(mp, threading.Thread, "start")
            guard = StoreCallCounter(mp)
            warm = GridRunner(spec, store=store).run()
        assert (warm.executed, warm.cached, warm.quarantined) == (0, self.CELLS, 0)
        assert reads[0] == self.CELLS
        assert probes[0] == 0
        assert configs[0] == self.ROWS
        assert payloads[0] == self.ROWS
        assert guard.per_call == [["ResultStore.get", 1]] * self.CELLS
        assert started[0] == 0
        assert threading.active_count() == threads

        again = GridRunner(self.spec(), store=open_store()).run()
        assert (again.executed, again.cached) == (0, self.CELLS)

    def test_cold_run_checks_a_key_once_per_path_it_builds(
        self, tmp_path, backend
    ):
        store = ResultStore(tmp_path / "store", backend=backend)
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            guard = StoreCallCounter(mp)
            cold = GridRunner(self.spec(), store=store).run()
            if backend == "json":
                store.path_for("ab" * 32)
                store.sidecar_path_for("ab" * 32)
        assert cold.executed == self.CELLS
        # Every call that takes a key pays the guard; only a json claim
        # call that reads the claim file and then rewrites or unlinks
        # it pays twice, once where each path is built.
        names = {name for name, _ in guard.per_call}
        assert {"ResultStore.get", "ResultStore.put", "ClaimStore.try_claim"} <= names
        for name, checks in guard.per_call:
            twice = backend == "json" and name in (
                "ClaimStore.heartbeat", "ClaimStore.release"
            )
            assert checks == (2 if twice else 1), (name, checks)
        assert threading.active_count() == threads
