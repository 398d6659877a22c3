"""Substrate-equivalence suite: the array-backed hot path changes nothing.

The scale refactor swapped three substrates under the simulator —

- CSR int-array overlay adjacency (vs dict-of-rows),
- int-backed Bloom vectors with memoised probe positions (vs bytearray
  + per-call BLAKE2b),
- bound O(1) latency closures (vs per-call model scans)

— while every observable (QueryOutcome streams, summaries, series,
metric snapshots) must stay *byte-identical*.  This suite proves it by
running full simulations twice: once on the production (new) substrate
and once with the reference backends monkeypatched in (the tests-only
:class:`reference_graph.DictOverlayGraph`, the tests-only
:class:`reference_bloom.ByteBloomFilter`, the per-call ``scan_*``
latency path of ``reference_latency``), then
comparing ``run_fingerprint`` output.

Component-level sections pin the equivalences individually so a
failure localises: identical RNG draws and neighbor orders for the two
graph backends, identical bit vectors for the two filter backends,
bit-identical floats for bound-vs-scan latency, and the memoised
position cache's one-digest-per-distinct-element contract.
"""

import random

import pytest

import reference_latency
import repro.bloom.counting as counting_module
import repro.bloom.delta as delta_module
import repro.core.bloom_router as bloom_router_module
import repro.overlay.blueprint as blueprint_module
from reference_bloom import ByteBloomFilter
from reference_graph import DictOverlayGraph
from reference_latency import scan_latency_ms, scan_rtt_ms
from repro.bloom.bloom_filter import (
    BloomFilter,
    _combined_mask,
    element_mask,
    element_positions,
    positions_cache_clear,
    positions_cache_info,
)
from repro.experiments import PROTOCOL_REGISTRY, run_protocol
from repro.net.latency import EuclideanLatencyModel, RouterLevelLatencyModel
from repro.net.underlay import Underlay
from repro.overlay.graph import OverlayGraph
from test_determinism import _config, run_fingerprint


def patch_scan_latency_s(mp: pytest.MonkeyPatch) -> None:
    """Time messages through ``reference_latency.scan_latency_ms``.

    A network calls the seconds closure its underlay bound at
    construction, not a class attribute, so the scan closure has to be
    set on every underlay built under the patch.  It looks the scan
    function up per call, so a test can count the calls."""
    init = Underlay.__init__

    def scan_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.latency_s = (
            lambda a, b: reference_latency.scan_latency_ms(self, a, b) / 1000.0
        )

    mp.setattr(Underlay, "__init__", scan_init)


def patch_legacy_substrate(mp: pytest.MonkeyPatch) -> None:
    """Swap every legacy backend in: dict graph, byte bloom, scan latency."""
    mp.setattr(blueprint_module, "OverlayGraph", DictOverlayGraph)
    mp.setattr(bloom_router_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(counting_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(delta_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(Underlay, "latency_ms", scan_latency_ms)
    mp.setattr(Underlay, "rtt_ms", scan_rtt_ms)
    patch_scan_latency_s(mp)


def run_on_legacy_substrate(config, protocol, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        patch_legacy_substrate(mp)
        return run_protocol(config, protocol, **kwargs)


class TestFullRunEquivalence:
    """End-to-end: new substrate == legacy substrate, byte for byte."""

    def test_patch_reaches_the_build(self):
        """Guard: under the legacy patch, blueprints really are built on
        the dict graph — otherwise every comparison here is vacuous."""
        from repro.overlay.blueprint import NetworkBlueprint

        with pytest.MonkeyPatch.context() as mp:
            patch_legacy_substrate(mp)
            blueprint = NetworkBlueprint.build(_config())
            assert isinstance(blueprint.graph, DictOverlayGraph)
        assert isinstance(NetworkBlueprint.build(_config()).graph, OverlayGraph)

    @pytest.mark.parametrize("latency_model", ["euclidean", "router"])
    def test_patch_reaches_message_timing(self, latency_model):
        """Guard: under the legacy patch, message arrival times come from
        ``scan_latency_ms / 1000`` — bound and scan latencies are
        bit-identical, so only the scan calls can tell the two apart."""
        from repro.overlay.blueprint import NetworkBlueprint

        config = _config().replace(latency_model=latency_model)
        targets = (1, 2, 3)

        def arrivals(network):
            seen = []
            network.send(
                0, targets, lambda dst, _msg: seen.append((dst, network.sim.now)), "x"
            )
            network.sim.run()
            return sorted(seen)

        scans = []

        def counted_scan(underlay, a, b):
            scans.append((a, b))
            return scan_latency_ms(underlay, a, b)

        with pytest.MonkeyPatch.context() as mp:
            patch_legacy_substrate(mp)
            network = NetworkBlueprint.build(config).instantiate()
            mp.setattr(reference_latency, "scan_latency_ms", counted_scan)
            legacy = arrivals(network)
        assert scans == [(0, dst) for dst in targets]
        assert legacy == [
            (dst, scan_latency_ms(network.underlay, 0, dst) / 1000.0)
            for dst in targets
        ]
        scans.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reference_latency, "scan_latency_ms", counted_scan)
            fast = arrivals(NetworkBlueprint.build(config).instantiate())
        assert scans == []
        assert fast == legacy

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    @pytest.mark.parametrize("scenario", ["baseline", "churn-storm"])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_byte_identical_runs(self, protocol, scenario, seed):
        config = _config(seed=seed)
        fast = run_protocol(
            config, protocol, max_queries=30, bucket_width=15, scenario=scenario
        )
        legacy = run_on_legacy_substrate(
            config, protocol, max_queries=30, bucket_width=15, scenario=scenario
        )
        assert run_fingerprint(fast) == run_fingerprint(legacy)

    def test_router_latency_model_runs_identically(self):
        """The router-model substrate (flat table + precomputed
        attachment) equals the per-call Dijkstra-table scan path."""
        config = _config(seed=4).replace(latency_model="router")
        fast = run_protocol(config, "locaware", max_queries=25, bucket_width=25)
        legacy = run_on_legacy_substrate(
            config, "locaware", max_queries=25, bucket_width=25
        )
        assert run_fingerprint(fast) == run_fingerprint(legacy)

    def test_metric_snapshots_equal_directly(self):
        config = _config(seed=3)
        fast = run_protocol(config, "locaware", max_queries=25, bucket_width=25)
        legacy = run_on_legacy_substrate(
            config, "locaware", max_queries=25, bucket_width=25
        )
        assert fast.metric_snapshot == legacy.metric_snapshot


class TestGraphBackendEquivalence:
    """Both graph backends draw the same RNG and freeze the same rows."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_construction_rows_identical(self, seed):
        csr = OverlayGraph.random(120, 3.0, random.Random(seed))
        ref = DictOverlayGraph.random(120, 3.0, random.Random(seed))
        assert csr.num_peers == ref.num_peers
        assert csr.num_edges == ref.num_edges
        for pid in range(120):
            assert list(csr.neighbors_view(pid)) == list(ref.neighbors_view(pid)), pid

    @pytest.mark.parametrize("seed", [2, 9])
    def test_mutation_sequences_identical(self, seed):
        """Interleaved removals/rejoins keep rows (and their order) equal."""
        csr = OverlayGraph.random(40, 3.0, random.Random(seed))
        ref = DictOverlayGraph.random(40, 3.0, random.Random(seed))
        ops_rng = random.Random(seed + 100)
        csr_rng = random.Random(seed + 200)
        ref_rng = random.Random(seed + 200)
        for _ in range(120):
            pid = ops_rng.randrange(40)
            if csr.contains(pid):
                assert csr.remove_peer(pid) == ref.remove_peer(pid)
            else:
                assert csr.add_peer(pid, 3, csr_rng) == ref.add_peer(pid, 3, ref_rng)
            for peer in csr.peers():
                assert list(csr.neighbors_view(peer)) == list(
                    ref.neighbors_view(peer)
                ), peer
        assert csr.peers() == ref.peers()
        assert csr.num_edges == ref.num_edges

    def test_copies_do_not_alias(self):
        csr = OverlayGraph.random(30, 3.0, random.Random(3))
        clone = csr.copy()
        clone.remove_peer(0)
        assert csr.contains(0)
        assert list(csr.neighbors_view(1)) == list(
            DictOverlayGraph.random(30, 3.0, random.Random(3)).neighbors_view(1)
        )

    def test_ranked_neighbors_agree(self):
        csr = OverlayGraph.random(80, 3.0, random.Random(5))
        ref = DictOverlayGraph.random(80, 3.0, random.Random(5))
        for pid in range(80):
            assert csr.ranked_neighbors(pid) == ref.ranked_neighbors(pid)


class TestBloomBackendEquivalence:
    """Int-backed and byte-backed filters serialise identically."""

    def _random_ops(self, cls, seed):
        rng = random.Random(seed)
        bf = cls(1200, 4)
        words = [f"kw{i}" for i in range(60)]
        for _ in range(200):
            bf.add(rng.choice(words))
        return bf

    @pytest.mark.parametrize("seed", [1, 6])
    def test_vectors_byte_identical(self, seed):
        fast = self._random_ops(BloomFilter, seed)
        legacy = self._random_ops(ByteBloomFilter, seed)
        assert fast.to_bytes() == legacy.to_bytes()
        assert fast.set_positions() == legacy.set_positions()
        assert fast.set_bit_count() == legacy.set_bit_count()

    def test_membership_agrees(self):
        fast = self._random_ops(BloomFilter, 2)
        legacy = self._random_ops(ByteBloomFilter, 2)
        for i in range(200):
            probe = f"kw{i}"
            assert (probe in fast) == (probe in legacy), probe

    def test_from_bit_int_roundtrips_on_both(self):
        value = random.Random(9).getrandbits(1200)
        fast = BloomFilter.from_bit_int(value, 1200, 4)
        legacy = ByteBloomFilter.from_bit_int(value, 1200, 4)
        assert fast.to_bytes() == legacy.to_bytes()
        assert fast.bit_int() == legacy.bit_int() == value

    def test_union_and_clear_agree(self):
        a_fast, a_legacy = BloomFilter(256, 3), ByteBloomFilter(256, 3)
        b_fast, b_legacy = BloomFilter(256, 3), ByteBloomFilter(256, 3)
        a_fast.add_all(["x", "y"])
        a_legacy.add_all(["x", "y"])
        b_fast.add_all(["y", "z"])
        b_legacy.add_all(["y", "z"])
        a_fast.union_with(b_fast)
        a_legacy.union_with(b_legacy)
        assert a_fast.to_bytes() == a_legacy.to_bytes()
        a_fast.clear()
        a_legacy.clear()
        assert a_fast.to_bytes() == a_legacy.to_bytes()


class TestLatencyPathEquivalence:
    """Bound closures return bit-identical floats to the scan path."""

    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: None,  # Underlay.build default: Euclidean
            lambda: EuclideanLatencyModel(10.0, 500.0),
            lambda: RouterLevelLatencyModel(random.Random(7)),
        ],
        ids=["default", "euclidean", "router"],
    )
    def test_bound_equals_scan(self, model_factory):
        underlay = Underlay.build(300, random.Random(11), model=model_factory())
        rng = random.Random(13)
        for _ in range(2000):
            a, b = rng.randrange(300), rng.randrange(300)
            assert underlay.latency_ms(a, b) == scan_latency_ms(underlay, a, b)
            assert underlay.rtt_ms(a, b) == scan_rtt_ms(underlay, a, b)
            assert underlay.latency_s(a, b) == scan_latency_ms(underlay, a, b) / 1000.0


class TestMemoisedPositions:
    """element_positions: one BLAKE2b per distinct (element, m, k)."""

    def setup_method(self):
        positions_cache_clear()

    def test_positions_unchanged_by_memoisation(self):
        # Golden check against the raw double-hash construction.
        import hashlib

        for element, bits, hashes in [("kw1", 1200, 4), ("kw1", 97, 8), ("a b", 64, 2)]:
            digest = hashlib.blake2b(element.encode("utf-8"), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1
            expected = tuple((h1 + i * h2) % bits for i in range(hashes))
            assert element_positions(element, bits, hashes) == expected

    def test_one_digest_per_distinct_element(self):
        before = positions_cache_info()
        for _ in range(50):
            element_positions("repeated", 1200, 4)
        after = positions_cache_info()
        assert after.misses == before.misses + 1
        assert after.hits >= before.hits + 49

    def test_distinct_geometries_cached_separately(self):
        assert element_positions("kw", 1200, 4) != element_positions("kw", 1201, 4)
        before = positions_cache_info().currsize
        element_positions("kw", 1200, 4)
        element_positions("kw", 1201, 4)
        assert positions_cache_info().currsize == before

    def test_keyword_tuple_masks_live_until_their_cell_ends(self):
        bf = BloomFilter(1200, 4)
        bf.add_all(["kw1", "kw2"])
        for _ in range(20):
            assert bf.contains_all(("kw1", "kw2"))
        info = _combined_mask.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 19, 1)
        # A cell empties the three Bloom memos as it ends, what it
        # hashed itself and what was there before it alike.
        run_protocol(_config(), "locaware", max_queries=60, bucket_width=30)
        assert _combined_mask.cache_info().currsize == 0
        assert element_mask.cache_info().currsize == 0
        assert positions_cache_info().currsize == 0

    def test_validation_still_raises(self):
        with pytest.raises(ValueError):
            element_positions("x", 0, 4)
        with pytest.raises(ValueError):
            element_positions("x", 100, 0)

    def test_filters_share_the_cache(self):
        bf = BloomFilter(512, 3)
        bf.add("shared-keyword")
        assert "shared-keyword" in bf
        legacy = ByteBloomFilter(512, 3)
        legacy.add("shared-keyword")
        assert legacy.to_bytes() == bf.to_bytes()
