"""Deterministic count gates on the per-hop path (counts, not seconds).

What a hop may cost is pinned by counting calls, which repeat exactly,
instead of timing them, which does not on a shared host:

- a last-resort hop reads the overlay's ranking of its neighbor row; the
  ranking asks ``OverlayGraph.degree`` once per row member when it is
  built and is built once per wiring, so a cell without churn makes at
  most ``2 * num_edges`` ``degree`` calls however many hops it routes;
- under churn the rankings a rewiring invalidates are rebuilt, which
  still costs fewer ``degree`` calls than ranking per hop (what the
  tests-only reference graph does) — with byte-identical results;
- the two per-hop messages are tuples: immutable for real, hashable,
  and their copies equal field-by-field construction.
"""

import pytest
from reference_graph import DictOverlayGraph
from test_determinism import run_fingerprint

import repro.overlay.blueprint as blueprint_module
from repro.experiments import PROTOCOL_REGISTRY, run_protocol, small_config
from repro.overlay import (
    NetworkBlueprint,
    OverlayGraph,
    ProviderEntry,
    Query,
    QueryResponse,
)

CONFIG = small_config(seed=5).replace(query_rate_per_peer=0.02)
QUERIES = 60
ROUTED = sorted(set(PROTOCOL_REGISTRY) - {"flooding"})


def count_degree_calls(mp, graph_cls):
    """Wrap ``graph_cls.degree`` for the life of ``mp``; returns the tally."""
    calls = [0]
    degree = graph_cls.degree

    def counted(self, peer_id):
        calls[0] += 1
        return degree(self, peer_id)

    mp.setattr(graph_cls, "degree", counted)
    return calls


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
