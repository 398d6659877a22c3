"""Property-based tests: cache structures against reference models."""

from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st
from reference_index_cache import PlainIndexCache

from repro.overlay import ProviderEntry
from repro.protocols import LocationAwareIndex

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
                assert 1 <= len(index.providers_of(cached)) <= max_providers

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


class TestOneProviderIndexProperties:
    """Dicas's response index is Locaware's at p_f = 1 (§3.2)."""

    @given(
        ops=st.lists(st.tuples(filenames, peer_ids), min_size=1, max_size=60),
        capacity=st.integers(1, 6),
    )
    def test_lru_matches_model(self, ops, capacity):
        index = LocationAwareIndex(capacity, 1)
        model: "OrderedDict[str, int]" = OrderedDict()
        for filename, peer in ops:
            index.put(filename, [ProviderEntry(peer, None)])
            if filename in model:
                model.move_to_end(filename)
            model[filename] = peer
            while len(model) > capacity:
                model.popitem(last=False)
        assert index.filenames() == list(model)
        for filename, peer in model.items():
            assert index.providers_of(filename) == [ProviderEntry(peer, None)]

    @given(ops=st.lists(st.tuples(filenames, peer_ids), min_size=1, max_size=40))
    def test_lookup_consistent_with_contents(self, ops):
        index = LocationAwareIndex(5, 1)
        for filename, peer in ops:
            index.put(filename, [ProviderEntry(peer, None)])
        for filename in index.filenames():
            keywords = filename.split("-")
            hit = index.lookup(keywords)
            assert hit is not None
            hit_filename, _providers = hit
            assert set(keywords) <= set(hit_filename.split("-"))

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), filenames, peer_ids, locids),
                st.tuples(
                    st.just("lookup"),
                    st.lists(st.sampled_from(["kwa", "kwb", "kwx", "kwz", "kwq"]),
                             max_size=3),
                ),
            ),
            min_size=1,
            max_size=80,
        ),
        capacity=st.integers(1, 6),
    )
    def test_agrees_with_the_single_provider_oracle(self, ops, capacity):
        """Any put/lookup sequence: same filename order, same lookup
        answers, same evicted names as the reference plain cache."""
        index = LocationAwareIndex(capacity, 1)
        oracle = PlainIndexCache(capacity)
        for op in ops:
            if op[0] == "put":
                _, filename, peer, locid = op
                provider = ProviderEntry(peer, locid)
                update = index.put(filename, [provider])
                evicted = oracle.put(filename, provider)
                assert update.evicted_filenames == (
                    () if evicted is None else (evicted,)
                )
            else:
                hit, expected = index.lookup(op[1]), oracle.lookup(op[1])
                if expected is None:
                    assert hit is None
                else:
                    assert hit == (expected[0], [expected[1]])
            assert index.filenames() == oracle.filenames()
