"""Property-based tests: cache structures against reference models."""

from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st

from repro.core import LocationAwareIndex
from repro.overlay import BoundedSet, ProviderEntry
from repro.protocols import PlainIndexCache

# Small universes force collisions, evictions, and refreshes.
filenames = st.sampled_from([f"kw{a}-kw{b}" for a in "abcd" for b in "wxyz"])
peer_ids = st.integers(0, 9)
locids = st.integers(0, 3)


@st.composite
def index_ops(draw):
    return draw(
        st.lists(
            st.tuples(filenames, st.lists(st.tuples(peer_ids, locids), min_size=1, max_size=4)),
            min_size=1,
            max_size=60,
        )
    )


class TestLocationAwareIndexProperties:
    @given(ops=index_ops(), capacity=st.integers(1, 6), max_providers=st.integers(1, 4))
    def test_capacity_invariants(self, ops, capacity, max_providers):
        index = LocationAwareIndex(capacity, max_providers)
        for filename, providers in ops:
            index.put(filename, [ProviderEntry(p, l) for p, l in providers])
            assert index.size <= capacity
            for cached in index.filenames():
                assert 1 <= index.provider_count(cached) <= max_providers

    @given(ops=index_ops())
    def test_matches_reference_model(self, ops):
        """Recency and provider sets agree with an OrderedDict model."""
        capacity, max_providers = 4, 3
        index = LocationAwareIndex(capacity, max_providers)
        model: "OrderedDict[str, OrderedDict[int, int]]" = OrderedDict()
        for filename, providers in ops:
            index.put(filename, [ProviderEntry(p, l) for p, l in providers])
            if filename in model:
                model.move_to_end(filename)
            else:
                model[filename] = OrderedDict()
            entry = model[filename]
            for p, l in providers:
                if p in entry:
                    del entry[p]
                entry[p] = l
            while len(entry) > max_providers:
                entry.popitem(last=False)
            while len(model) > capacity:
                model.popitem(last=False)
        assert index.filenames() == list(model)
        for filename in model:
            expected = [
                ProviderEntry(p, l) for p, l in reversed(model[filename].items())
            ]
            assert index.providers_of(filename) == expected

    @given(ops=index_ops())
    def test_evictions_reported_exactly_once(self, ops):
        index = LocationAwareIndex(3, 2)
        evicted_total = []
        inserted_total = 0
        for filename, providers in ops:
            update = index.put(filename, [ProviderEntry(p, l) for p, l in providers])
            evicted_total.extend(update.evicted_filenames)
            inserted_total += 1 if update.inserted_filename else 0
        # Everything ever evicted plus everything still cached equals
        # everything ever inserted (filenames can be re-inserted after
        # eviction, so compare counts, not sets).
        assert len(evicted_total) + index.size == inserted_total


class TestPlainIndexCacheProperties:
    @given(
        ops=st.lists(st.tuples(filenames, peer_ids), min_size=1, max_size=60),
        capacity=st.integers(1, 6),
    )
    def test_lru_matches_model(self, ops, capacity):
        cache = PlainIndexCache(capacity)
        model: "OrderedDict[str, int]" = OrderedDict()
        for filename, peer in ops:
            cache.put(filename, ProviderEntry(peer, None))
            if filename in model:
                model.move_to_end(filename)
            model[filename] = peer
            while len(model) > capacity:
                model.popitem(last=False)
        assert cache.filenames() == list(model)
        for filename, peer in model.items():
            assert cache.get(filename) == ProviderEntry(peer, None)

    @given(ops=st.lists(st.tuples(filenames, peer_ids), min_size=1, max_size=40))
    def test_lookup_consistent_with_contents(self, ops):
        cache = PlainIndexCache(5)
        for filename, peer in ops:
            cache.put(filename, ProviderEntry(peer, None))
        for filename in cache.filenames():
            keywords = filename.split("-")
            hit = cache.lookup(keywords)
            assert hit is not None
            hit_filename, _provider = hit
            assert set(keywords) <= set(hit_filename.split("-"))


class TestBoundedSetProperties:
    @given(
        items=st.lists(st.integers(0, 30), min_size=1, max_size=100),
        capacity=st.integers(1, 10),
    )
    def test_matches_fifo_model(self, items, capacity):
        """FIFO-with-dedup: re-adding a present item is a no-op; an
        evicted item can re-enter (exactly the duplicate-suppression
        semantics peers need)."""
        s = BoundedSet(capacity)
        model: "OrderedDict[int, None]" = OrderedDict()
        for item in items:
            s.add(item)
            if item not in model:
                model[item] = None
                if len(model) > capacity:
                    model.popitem(last=False)
        assert len(s) == len(model)
        for item in set(items):
            assert (item in s) == (item in model)

    @given(
        items=st.lists(st.integers(0, 30), min_size=1, max_size=100),
        capacity=st.integers(1, 10),
    )
    def test_evicts_in_insertion_order_and_readding_is_inert(self, items, capacity):
        """At capacity the oldest insertion goes, one per new item; adding
        a present item reports ``False`` and neither refreshes its place
        in the order nor evicts anything."""
        s = BoundedSet(capacity)
        order: list[int] = []
        for item in items:
            assert s.add(item) is (item not in order)
            if item not in order:
                order.append(item)
                del order[:-capacity]
            assert list(s._items) == order
