"""Unit tests for overlay messages."""

from repro.overlay import ProviderEntry, Query, QueryResponse


def make_query(**overrides):
    defaults = dict(
        query_id=1,
        origin=10,
        origin_locid=3,
        keywords=("kw1", "kw2"),
        target_file=42,
        ttl=7,
        path=(10,),
        group=5,
        keyword_mask=0b1011,
    )
    defaults.update(overrides)
    return Query(**defaults)


def make_response(**overrides):
    defaults = dict(
        query_id=1,
        origin=10,
        origin_locid=3,
        keywords=("kw1",),
        file_id=42,
        filename="kw1-kw2-kw3",
        providers=(ProviderEntry(5, 2),),
        responder=5,
        reverse_path=(7, 10),
    )
    defaults.update(overrides)
    return QueryResponse(**defaults)


class TestQuery:
    def test_forwarded_decrements_ttl(self):
        q = make_query(ttl=5)
        assert q.forwarded(20).ttl == 4

    def test_forwarded_extends_path(self):
        q = make_query(path=(10,))
        assert q.forwarded(20).path == (10, 20)

    def test_forwarded_preserves_identity_fields(self):
        q = make_query()
        copy = q.forwarded(20)
        assert copy.query_id == q.query_id
        assert copy.origin == q.origin
        assert copy.keywords == q.keywords

    def test_forwarded_carries_the_routing_keys(self):
        copy = make_query().forwarded(20).forwarded(30)
        assert (copy.group, copy.keyword_mask) == (5, 0b1011)

    def test_forwarded_at_the_origin_spends_a_hop_only(self):
        # The origin's path already ends with it: no duplicate entry.
        q = make_query(path=(10,), ttl=5)
        assert q.forwarded(10) == q._replace(ttl=4)

    def test_last_hop(self):
        assert make_query(path=(10, 20, 30)).last_hop == 30

    def test_immutable(self):
        q = make_query()
        try:
            q.ttl = 0  # type: ignore[misc]
            raised = False
        except Exception:
            raised = True
        assert raised


class TestQueryResponse:
    def test_next_hop_is_first_reverse_entry(self):
        assert make_response(reverse_path=(7, 10)).next_hop() == 7

    def test_next_hop_none_when_delivered(self):
        assert make_response(reverse_path=()).next_hop() is None

    def test_advanced_pops_one_hop(self):
        r = make_response(reverse_path=(7, 10))
        assert r.advanced().reverse_path == (10,)

    def test_advanced_to_exhaustion(self):
        r = make_response(reverse_path=(7,))
        assert r.advanced().reverse_path == ()

    def test_provider_entry_defaults(self):
        assert ProviderEntry(3).locid is None
