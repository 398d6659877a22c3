"""Tests for the ablation drivers (small-scale runs)."""


import pytest

from repro.experiments import run_protocol, small_config
from repro.experiments.ablations import (
    AblationResult,
    _grid_rows,
    ablate_bloom_size,
    ablate_cache_capacity,
    ablate_churn,
    ablate_group_count,
    ablate_landmarks,
    ablate_locaware_routing,
    ablate_substrate,
    ablate_ttl,
    measure_bloom_overhead,
)
from repro.overlay import blueprint
from test_determinism import run_fingerprint


@pytest.fixture(scope="module")
def base():
    return small_config(seed=13).replace(query_rate_per_peer=0.02)


class TestAblationResult:
    def test_render_contains_title_and_rows(self):
        result = AblationResult("AX", "demo", ["a", "b"], [[1, 2.5], [3, 4.0]])
        text = result.render()
        assert "AX: demo" in text
        assert "2.50" in text

    def test_column_accessor(self):
        result = AblationResult("AX", "demo", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("a") == [1, 3]
        with pytest.raises(ValueError):
            result.column("missing")


class TestSweeps:
    def test_landmarks(self, base):
        result = ablate_landmarks(base, max_queries=60, counts=(2, 4))
        assert result.column("landmarks") == [2, 4]
        assert result.column("locIds") == [2, 24]
        peers_per = result.column("peers/locId")
        assert peers_per[0] > peers_per[1]

    def test_bloom_size(self, base):
        result = ablate_bloom_size(base, max_queries=60, sizes=(64, 512))
        fprs = result.column("est_fpr")
        assert fprs[0] > fprs[1]
        assert len(result.rows) == 2

    def test_cache_capacity(self, base):
        result = ablate_cache_capacity(
            base, max_queries=60, capacities=(2, 20), protocols=("dicas", "locaware")
        )
        assert result.headers == ["capacity", "dicas success", "locaware success"]
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_ttl(self, base):
        result = ablate_ttl(base, max_queries=60, ttls=(2, 5))
        flood_msgs = result.column("flooding msgs")
        assert flood_msgs[0] < flood_msgs[1]

    def test_churn(self, base):
        result = ablate_churn(
            base, max_queries=60, mean_sessions=(None, 300.0), protocols=("locaware",)
        )
        assert result.rows[0][0] == "off"
        assert result.rows[1][0] == 300.0

    def test_bloom_overhead(self, base):
        result = measure_bloom_overhead(base, max_queries=100)
        rows = dict(zip(result.column("quantity"), result.column("value")))
        assert rows["paper bound (bits)"] == 132
        if rows["bloom update pushes"] > 0:
            assert rows["mean update size (bits)"] <= base.bloom_bits

    def test_group_count(self, base):
        result = ablate_group_count(
            base, max_queries=60, group_counts=(2, 8), protocols=("dicas",)
        )
        assert result.column("M") == [2, 8]

    def test_locaware_routing_extension(self, base):
        result = ablate_locaware_routing(base, max_queries=60)
        assert result.column("variant") == ["locaware", "locaware+locrouting"]
        for rate in result.column("success"):
            assert 0.0 <= rate <= 1.0

    def test_substrate(self, base):
        before = blueprint.build_count()
        result = ablate_substrate(base, max_queries=40, protocols=("flooding", "locaware"))
        assert blueprint.build_count() - before <= 4  # one per world, not per cell
        assert result.column("substrate") == [
            "euclidean/clustered", "euclidean/uniform",
            "router/clustered", "router/uniform",
        ]
        assert result.headers[1:4] == [
            "flooding success", "flooding dist_ms", "flooding msgs"
        ]
        for flood, loc in zip(
            result.column("flooding msgs"), result.column("locaware msgs")
        ):
            assert loc < flood

    def test_bad_axis_fails_before_any_cell_runs(self, base):
        before = blueprint.build_count()
        with pytest.raises(ValueError, match="duplicate entries on the config-override"):
            ablate_ttl(base, max_queries=60, ttls=(3, 3))
        with pytest.raises(ValueError, match="unknown protocol 'gossip'"):
            ablate_cache_capacity(base, max_queries=60, protocols=("gossip",))
        with pytest.raises(ValueError, match="max_queries must be >= 1"):
            measure_bloom_overhead(base, max_queries=0)
        assert blueprint.build_count() == before


class TestOneEngine:
    """The drivers are grids: one build per world, same runs as scratch."""

    def test_capacity_sweep_builds_its_one_world_at_most_once(self, base):
        before = blueprint.build_count()
        ablate_cache_capacity(
            base, max_queries=60, capacities=(2, 20), protocols=("dicas", "locaware")
        )
        assert blueprint.build_count() - before <= 1

    def test_locaware_routing_variants_share_one_build(
        self, base, swap_blueprint_cache
    ):
        swap_blueprint_cache(max_peers=8 * 60)
        before = blueprint.build_count()
        ablate_locaware_routing(base, max_queries=60)
        assert blueprint.build_count() - before == 1

    def test_ttl_rows_equal_scratch_runs(self, base):
        """A4's cells are what direct, blueprint-less runs of them give."""
        ttls, protocols = (2, 5), ("flooding", "locaware")
        result = ablate_ttl(base, max_queries=60, ttls=ttls, protocols=protocols)
        rows = _grid_rows(
            base, 60, protocols, config_overrides=[{"ttl": ttl} for ttl in ttls]
        )
        for ttl, row, runs in zip(ttls, result.rows, rows, strict=True):
            expected = [ttl]
            for protocol, run in zip(protocols, runs, strict=True):
                scratch = run_protocol(
                    base.replace(ttl=ttl), protocol, max_queries=60,
                    bucket_width=15, scenario="baseline",
                )
                assert run_fingerprint(run) == run_fingerprint(scratch)
                expected += [scratch.summary.success_rate, scratch.summary.mean_messages]
            assert row == expected
