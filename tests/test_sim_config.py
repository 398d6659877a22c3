"""Unit tests for SimulationConfig validation and defaults."""

import pytest

from repro.sim import ConfigurationError, SimulationConfig


class TestPaperDefaults:
    """The defaults must be exactly the §5.1 setup."""

    def test_population(self):
        cfg = SimulationConfig.paper_defaults()
        assert cfg.num_peers == 1000
        assert cfg.mean_degree == 3.0

    def test_underlay(self):
        cfg = SimulationConfig.paper_defaults()
        assert cfg.min_latency_ms == 10.0
        assert cfg.max_latency_ms == 500.0
        assert cfg.num_landmarks == 4

    def test_files(self):
        cfg = SimulationConfig.paper_defaults()
        assert cfg.num_files == 3000
        assert cfg.files_per_peer == 3
        assert cfg.keywords_per_file == 3
        assert cfg.keyword_pool_size == 9000

    def test_workload(self):
        cfg = SimulationConfig.paper_defaults()
        assert cfg.query_rate_per_peer == pytest.approx(0.00083)
        assert cfg.min_query_keywords == 1
        assert cfg.max_query_keywords == 3
        assert cfg.ttl == 7

    def test_caching(self):
        cfg = SimulationConfig.paper_defaults()
        assert cfg.index_capacity == 50
        assert cfg.bloom_bits == 1200

    def test_churn_off_by_default(self):
        assert SimulationConfig.paper_defaults().churn_enabled is False


class TestValidation:
    def test_too_few_peers_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_peers=1)

    def test_degree_above_population_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_peers=10, mean_degree=10)

    def test_latency_order_enforced(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_latency_ms=100, max_latency_ms=50)

    def test_zero_min_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_latency_ms=0)

    def test_landmark_bounds(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_landmarks=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_landmarks=9)

    def test_files_per_peer_bounded_by_pool(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_files=2, files_per_peer=3)

    def test_query_keyword_bounds_ordered(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_query_keywords=3, max_query_keywords=1)

    def test_query_keywords_bounded_by_filename(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(keywords_per_file=3, max_query_keywords=4)

    def test_keyword_pool_large_enough(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(keyword_pool_size=2, keywords_per_file=3)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(query_rate_per_peer=0.0)

    def test_ttl_at_least_one(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ttl=0)

    def test_timeout_covers_response_window(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(response_window_s=10.0, query_timeout_s=5.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ttl", "abc", "ttl must be an int, got 'abc'"),
            ("ttl", 2.5, "ttl must be an int, got 2.5"),
            ("ttl", True, "ttl must be an int, got True"),
            ("mean_degree", "3", "mean_degree must be a number, got '3'"),
            ("mean_degree", False, "mean_degree must be a number, got False"),
            ("latency_model", 1, "latency_model must be a string, got 1"),
            ("churn_enabled", 1, "churn_enabled must be true or false, got 1"),
        ],
    )
    def test_a_value_of_the_wrong_type_is_named(self, field, value, message):
        with pytest.raises(ConfigurationError) as raised:
            SimulationConfig().replace(**{field: value})
        assert str(raised.value) == message

    def test_an_int_for_a_float_field_stays_an_int(self):
        """Converting would move every cell key that carries it."""
        config = SimulationConfig(mean_session_s=600, bloom_update_period_s=30)
        assert type(config.mean_session_s) is int
        assert type(config.bloom_update_period_s) is int


class TestReplace:
    def test_replace_changes_field(self):
        cfg = SimulationConfig.paper_defaults().replace(ttl=5)
        assert cfg.ttl == 5
        assert cfg.num_peers == 1000

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig.paper_defaults().replace(ttl=0)

    def test_frozen(self):
        cfg = SimulationConfig.paper_defaults()
        with pytest.raises(Exception):
            cfg.ttl = 3  # type: ignore[misc]

    def test_to_dict_roundtrip(self):
        cfg = SimulationConfig.small()
        rebuilt = SimulationConfig(**cfg.to_dict())
        assert rebuilt == cfg

    @pytest.mark.parametrize(
        "cfg",
        [
            SimulationConfig.paper_defaults(),
            SimulationConfig.small(seed=3),
            SimulationConfig.small().replace(
                latency_model="router", churn_enabled=True, mean_degree=2.5, ttl=4
            ),
        ],
    )
    def test_to_dict_is_dataclasses_asdict(self, cfg):
        import dataclasses

        flat = cfg.to_dict()
        assert flat == dataclasses.asdict(cfg)
        assert list(flat) == list(dataclasses.asdict(cfg))  # field order too
        assert flat is not cfg.to_dict()

    def test_every_field_is_a_scalar(self):
        """``to_dict`` copies the fields flat, which is a deep copy only
        while none of them is a container: a list, dict or nested
        dataclass field needs ``to_dict`` (and the key payload's
        ``dict(config)``) to copy it."""
        import dataclasses

        cfg = SimulationConfig.paper_defaults()
        not_scalar = {
            f.name: type(getattr(cfg, f.name)).__name__
            for f in dataclasses.fields(cfg)
            if type(getattr(cfg, f.name)) not in (int, float, bool, str)
        }
        assert not not_scalar, (
            f"SimulationConfig field(s) {not_scalar} are not int | float | bool | "
            "str: SimulationConfig.to_dict is a flat field copy and would share "
            "them with the config — make to_dict copy them before adding one"
        )

    def test_small_config_valid_and_smaller(self):
        cfg = SimulationConfig.small()
        assert cfg.num_peers < 200
        assert cfg.num_files >= cfg.files_per_peer


class TestTopologyFingerprint:
    """The fingerprint is the cache key of the blueprint/instance split:
    equal fingerprints must mean identical built worlds."""

    def test_fields_exist_on_the_dataclass(self):
        import dataclasses

        from repro.sim.config import TOPOLOGY_FIELDS

        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert TOPOLOGY_FIELDS <= names

    def test_stable_across_instances(self):
        a = SimulationConfig.small(seed=5)
        b = SimulationConfig.small(seed=5)
        assert a.topology_fingerprint() == b.topology_fingerprint()

    def test_sensitive_to_every_topology_field(self):
        from repro.sim.config import TOPOLOGY_FIELDS

        base = SimulationConfig.small(seed=5)
        changed = {
            "num_peers": 61,
            "mean_degree": 4.0,
            "min_latency_ms": 11.0,
            "max_latency_ms": 400.0,
            "num_landmarks": 3,
            "latency_model": "router",
            "peer_placement": "uniform",
            "num_files": 181,
            "files_per_peer": 2,
            "keywords_per_file": 4,
            "keyword_pool_size": 541,
            "group_count": 5,
            "seed": 6,
        }
        assert set(changed) == TOPOLOGY_FIELDS
        for name, value in changed.items():
            assert (
                base.replace(**{name: value}).topology_fingerprint()
                != base.topology_fingerprint()
            ), f"fingerprint blind to topology field {name}"

    def test_insensitive_to_runtime_fields(self):
        base = SimulationConfig.small(seed=5)
        runtime = base.replace(
            query_rate_per_peer=0.5,
            ttl=2,
            index_capacity=5,
            bloom_bits=256,
            churn_enabled=True,
            mean_session_s=60.0,
            response_window_s=1.0,
        )
        assert runtime.topology_fingerprint() == base.topology_fingerprint()

    def test_stream_name_split_is_disjoint(self):
        from repro.sim.config import BUILD_STREAM_NAMES, RUN_STREAM_NAMES

        assert not (BUILD_STREAM_NAMES & RUN_STREAM_NAMES)
