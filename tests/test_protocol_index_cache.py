"""Unit tests for the response index Dicas, Dicas-Keys and Locaware keep.

Filename-level behaviour (capacity, recency, lookup) holds at every
provider bound, so those cases run at p_f = 1 (Dicas) and p_f = 3;
the multi-provider cases are Locaware's (§4.1.2).
"""

import pytest

from repro.overlay import ProviderEntry
from repro.protocols import LocationAwareIndex


@pytest.fixture(params=[1, 3], ids=["pf1", "pf3"])
def make(request):
    """``make(capacity)`` → an index at the parametrized provider bound."""
    return lambda capacity: LocationAwareIndex(capacity, request.param)


class TestPut:
    def test_put_and_get(self, make):
        index = make(10)
        index.put("kw1-kw2-kw3", [ProviderEntry(5, 2)])
        assert index.providers_of("kw1-kw2-kw3") == [ProviderEntry(5, 2)]

    def test_put_updates_provider(self, make):
        index = make(10)
        index.put("kw1-kw2", [ProviderEntry(5)])
        index.put("kw1-kw2", [ProviderEntry(9)])
        assert index.providers_of("kw1-kw2")[0] == ProviderEntry(9)
        assert index.size == 1

    def test_capacity_evicts_lru(self, make):
        index = make(2)
        index.put("a-b", [ProviderEntry(1)])
        index.put("c-d", [ProviderEntry(2)])
        update = index.put("e-f", [ProviderEntry(3)])
        assert update.evicted_filenames == ("a-b",)
        assert index.providers_of("a-b") == []
        assert "a-b" not in index
        assert index.lookup(["a"]) is None
        assert index.size == 2

    def test_refresh_protects_from_eviction(self, make):
        index = make(2)
        index.put("a-b", [ProviderEntry(1)])
        index.put("c-d", [ProviderEntry(2)])
        index.put("a-b", [ProviderEntry(9)])  # refresh recency
        update = index.put("e-f", [ProviderEntry(3)])
        assert update.evicted_filenames == ("c-d",)
        assert index.providers_of("a-b") != []

    def test_a_full_index_holds_the_most_recent_filenames(self, make):
        """200 puts into the paper's 50-filename index: the last 50 stay,
        and a two-keyword query finds a filename iff it stayed."""
        names = ["kw%03d-kw%03d-kw%03d" % (i, i + 1, i + 2) for i in range(200)]
        index = make(50)
        for i, filename in enumerate(names):
            index.put(filename, [ProviderEntry(i, i % 24)])
        assert index.filenames() == names[150:]
        for i, filename in enumerate(names):
            found = index.lookup(filename.split("-")[:2])
            if i >= 150:
                assert found == (filename, [ProviderEntry(i, i % 24)])
            else:
                assert found is None

    def test_no_eviction_below_capacity(self, make):
        assert make(3).put("a-b", [ProviderEntry(1)]).evicted_filenames == ()

    def test_insert_reports_new_filename(self, make):
        index = make(10)
        update = index.put("kw1-kw2", [ProviderEntry(1, 0)])
        assert update.inserted_filename is True
        assert update.evicted_filenames == ()

    def test_second_put_is_not_an_insert(self, make):
        index = make(10)
        index.put("kw1-kw2", [ProviderEntry(1, 0)])
        update = index.put("kw1-kw2", [ProviderEntry(2, 1)])
        assert update.inserted_filename is False

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LocationAwareIndex(0, 5)
        with pytest.raises(ValueError):
            LocationAwareIndex(5, 0)


class TestProviders:
    """p_f > 1: Locaware's per-filename provider lists (§4.1.2)."""

    def test_providers_accumulate(self):
        index = LocationAwareIndex(10, 5)
        index.put("kw1-kw2", [ProviderEntry(1, 0)])
        index.put("kw1-kw2", [ProviderEntry(2, 1)])
        providers = index.providers_of("kw1-kw2")
        assert {p.peer_id for p in providers} == {1, 2}

    def test_most_recent_first(self):
        index = LocationAwareIndex(10, 5)
        index.put("kw1-kw2", [ProviderEntry(1, 0)])
        index.put("kw1-kw2", [ProviderEntry(2, 1)])
        assert index.providers_of("kw1-kw2")[0].peer_id == 2

    def test_readding_provider_refreshes_recency_and_locid(self):
        index = LocationAwareIndex(10, 5)
        index.put("kw1-kw2", [ProviderEntry(1, 0), ProviderEntry(2, 1)])
        index.put("kw1-kw2", [ProviderEntry(1, 7)])
        providers = index.providers_of("kw1-kw2")
        assert providers[0] == ProviderEntry(1, 7)
        assert len(providers) == 2

    def test_provider_bound_drops_oldest(self):
        """§4.1.2: the most recent p_f entries replace the oldest ones."""
        index = LocationAwareIndex(10, 3)
        for pid in range(5):
            index.put("kw1-kw2", [ProviderEntry(pid, 0)])
        providers = index.providers_of("kw1-kw2")
        assert [p.peer_id for p in providers] == [4, 3, 2]

    def test_one_provider_bound_keeps_the_newest(self):
        """Dicas (§3.2): one provider per filename, the latest put's."""
        index = LocationAwareIndex(10, 1)
        index.put("kw1-kw2", [ProviderEntry(1, 0), ProviderEntry(2, 1)])
        assert index.providers_of("kw1-kw2") == [ProviderEntry(2, 1)]


class TestLookup:
    def test_lookup_by_all_keywords(self, make):
        index = make(10)
        index.put("kw1-kw2-kw3", [ProviderEntry(5, 0)])
        hit = index.lookup(["kw1", "kw3"])
        assert hit is not None
        filename, providers = hit
        assert filename == "kw1-kw2-kw3"
        assert providers[0].peer_id == 5

    def test_lookup_requires_every_keyword(self, make):
        index = make(10)
        index.put("kw1-kw2-kw3", [ProviderEntry(5)])
        assert index.lookup(["kw1", "kw9"]) is None

    def test_lookup_prefers_most_recent(self, make):
        index = make(10)
        index.put("kw1-kw2", [ProviderEntry(1)])
        index.put("kw1-kw3", [ProviderEntry(2)])
        assert index.lookup(["kw1"])[0] == "kw1-kw3"

    def test_lookup_empty_query(self, make):
        index = make(10)
        index.put("kw1-kw2", [ProviderEntry(1)])
        assert index.lookup([]) is None

    def test_contains(self, make):
        index = make(10)
        index.put("kw1-kw2", [ProviderEntry(1)])
        assert "kw1-kw2" in index
        assert "kw9-kw8" not in index

    def test_filenames_in_lru_order(self, make):
        index = make(10)
        index.put("a-b", [ProviderEntry(1)])
        index.put("c-d", [ProviderEntry(2)])
        index.put("a-b", [ProviderEntry(1)])
        assert index.filenames() == ["c-d", "a-b"]

