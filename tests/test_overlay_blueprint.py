"""Unit tests for the blueprint/instance split (NetworkBlueprint)."""

import weakref

import pytest

from repro.overlay import NetworkBlueprint, P2PNetwork
from repro.overlay.blueprint import BlueprintCache, build_count
from repro.sim import SimulationConfig
from repro.sim.config import BUILD_STREAM_NAMES


def _config(seed=3, **overrides):
    return SimulationConfig.small(seed=seed).replace(**overrides)


@pytest.fixture(scope="module")
def blueprint():
    return NetworkBlueprint.build(_config())


class TestBuild:
    def test_captures_whole_world(self, blueprint):
        config = blueprint.config
        assert blueprint.underlay.num_peers == config.num_peers
        assert blueprint.graph.num_peers == config.num_peers
        assert len(blueprint.gids) == config.num_peers
        assert len(blueprint.initial_shares) == config.num_peers
        for shares in blueprint.initial_shares:
            assert len(shares) == config.files_per_peer
        for gid in blueprint.gids:
            assert 0 <= gid < config.group_count

    def test_fingerprint_matches_config(self, blueprint):
        assert blueprint.fingerprint == blueprint.config.topology_fingerprint()
        assert blueprint.compatible_with(blueprint.config)

    def test_matches_scratch_build(self, blueprint):
        scratch = P2PNetwork.build(_config())
        assert [p.gid for p in scratch.peers] == list(blueprint.gids)
        assert [sorted(p.store.file_ids()) for p in scratch.peers] == [
            sorted(shares) for shares in blueprint.initial_shares
        ]
        for pid in range(scratch.config.num_peers):
            assert scratch.graph.neighbors(pid) == blueprint.graph.neighbors(pid)
            assert scratch.underlay.locid_of(pid) == blueprint.underlay.locid_of(pid)


class TestInstantiate:
    def test_instances_share_immutables(self, blueprint):
        a = blueprint.instantiate()
        b = blueprint.instantiate()
        assert a.underlay is blueprint.underlay
        assert b.underlay is blueprint.underlay
        assert a.catalog is blueprint.catalog

    def test_instances_get_independent_mutables(self, blueprint):
        a = blueprint.instantiate()
        b = blueprint.instantiate()
        assert a.sim is not b.sim
        assert a.graph is not b.graph
        assert a.graph is not blueprint.graph
        assert a.metrics is not b.metrics
        # Mutating one instance leaves the sibling and the blueprint intact.
        a.graph.remove_peer(0)
        assert b.graph.contains(0)
        assert blueprint.graph.contains(0)
        victim = min(a.peer(1).store.file_ids())
        a.peer(1).store.remove(victim)
        assert sorted(b.peer(1).store.file_ids()) == sorted(blueprint.initial_shares[1])

    def test_instance_equals_scratch_build(self, blueprint):
        scratch = P2PNetwork.build(_config())
        instance = blueprint.instantiate()
        assert [p.gid for p in instance.peers] == [p.gid for p in scratch.peers]
        assert [sorted(p.store.file_ids()) for p in instance.peers] == [
            sorted(p.store.file_ids()) for p in scratch.peers
        ]
        assert [p.locid for p in instance.peers] == [p.locid for p in scratch.peers]
        for pid in range(scratch.config.num_peers):
            assert instance.graph.neighbors(pid) == scratch.graph.neighbors(pid)

    def test_runtime_streams_identical_to_scratch(self, blueprint):
        scratch = P2PNetwork.build(_config())
        instance = blueprint.instantiate()
        assert [scratch.streams.stream("workload").random() for _ in range(5)] == [
            instance.streams.stream("workload").random() for _ in range(5)
        ]

    def test_build_streams_forbidden_at_runtime(self, blueprint):
        instance = blueprint.instantiate()
        for name in sorted(BUILD_STREAM_NAMES):
            with pytest.raises(ValueError, match="forbidden"):
                instance.streams.stream(name)

    def test_runtime_config_override_allowed(self, blueprint):
        config = _config(churn_enabled=True, query_rate_per_peer=0.5, ttl=2)
        instance = blueprint.instantiate(config=config)
        assert instance.config is config
        assert instance.config.churn_enabled

    def test_topology_config_override_rejected(self, blueprint):
        for overrides in ({"seed": 99}, {"num_peers": 10}, {"files_per_peer": 1}):
            with pytest.raises(ValueError, match="topology-incompatible"):
                blueprint.instantiate(config=_config(**overrides))

    def test_router_model_blueprint_instantiates(self):
        config = _config(latency_model="router")
        blueprint = NetworkBlueprint.build(config)
        a = blueprint.instantiate()
        b = P2PNetwork.build(config)
        assert a.underlay.latency_ms(0, 1) == b.underlay.latency_ms(0, 1)
        assert a.underlay.latency_ms(3, 7) == b.underlay.latency_ms(3, 7)


class TestBlueprintCache:
    """The cache is bounded by what it holds — peers and worlds,
    whichever binds first — evicts before it builds, and under budget
    is a plain LRU."""

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="max_peers"):
            BlueprintCache(max_peers=0, max_worlds=8)
        with pytest.raises(ValueError, match="max_worlds"):
            BlueprintCache(max_peers=8000, max_worlds=0)

    def test_fits_is_peers_and_worlds_and_one_world_always_does(self):
        cache = BlueprintCache(max_peers=150, max_worlds=3)
        big, small = _config(), _config(num_peers=20, num_files=60)
        assert cache.fits([])
        assert cache.fits([_config(num_peers=9000, num_files=27000)])
        assert cache.fits([big, big])  # 120 peers, 2 worlds
        assert not cache.fits([big, big, big])  # 180 peers
        assert cache.fits([small, small, small])  # 60 peers, 3 worlds
        assert not cache.fits([small, small, small, small])  # 4 worlds

    def test_victim_is_freed_before_its_replacement_is_built(self, monkeypatch):
        cache = BlueprintCache(max_peers=100, max_worlds=8)  # one 60-peer world
        world_a = weakref.ref(cache.get(_config(seed=1)))
        assert world_a() is not None
        real_build = NetworkBlueprint.build.__func__
        dead_on_entry = []

        def build(cls, config):
            dead_on_entry.append(world_a() is None)
            return real_build(cls, config)

        monkeypatch.setattr(NetworkBlueprint, "build", classmethod(build))
        cache.get(_config(seed=2))
        assert dead_on_entry == [True]
        assert len(cache) == 1

    def test_a_world_over_the_whole_budget_is_held_alone(self):
        cache = BlueprintCache(max_peers=30, max_worlds=8)
        first = cache.get(_config(seed=1))
        assert cache.get(_config(seed=1)) is first  # still a hit
        cache.get(_config(seed=2))
        assert len(cache) == 1
        assert _config(seed=1).topology_fingerprint() not in cache

    def test_a_large_world_evicts_as_many_small_ones_as_it_needs(self):
        cache = BlueprintCache(max_peers=100, max_worlds=8)
        small = [_config(seed=s, num_peers=20, num_files=60) for s in (1, 2, 3, 4)]
        for config in small:
            cache.get(config)
        assert len(cache) == 4
        cache.get(_config(seed=5))  # 60 peers: room for two of the four
        held = [config.topology_fingerprint() in cache for config in small]
        assert held == [False, False, True, True]

    def test_small_worlds_are_bounded_by_count(self):
        """A world's fixed parts do not shrink with its population, so
        a peer budget alone would hold small worlds by the hundred."""
        cache = BlueprintCache(max_peers=8000, max_worlds=3)
        configs = [_config(seed=s) for s in (1, 2, 3, 4)]
        for config in configs:
            cache.get(config)
        held = [config.topology_fingerprint() in cache for config in configs]
        assert held == [False, True, True, True]

    def test_under_budget_it_is_an_lru(self):
        cache = BlueprintCache(max_peers=2 * 60, max_worlds=8)
        a, b, c = (_config(seed=s) for s in (1, 2, 3))
        world_a = cache.get(a)
        cache.get(b)
        before = build_count()
        # A hit builds nothing, returns the same object for a
        # run-time-only variant, and moves the world to the end ...
        assert cache.get(a.replace(query_rate_per_peer=0.5)) is world_a
        assert build_count() == before
        cache.get(c)  # ... so b, not a, is the victim.
        assert a.topology_fingerprint() in cache
        assert b.topology_fingerprint() not in cache
        assert c.topology_fingerprint() in cache

    def test_clear_empties_it(self):
        cache = BlueprintCache(max_peers=120, max_worlds=8)
        cache.get(_config(seed=1))
        cache.clear()
        assert len(cache) == 0
