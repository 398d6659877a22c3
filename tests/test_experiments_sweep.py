"""Unit tests for protocol × scenario × seed sweeps on the grid runner."""

import pytest

from repro.analysis import aggregate_sweep, render_sweep_report
from repro.experiments import GridRunner, GridSpec, run_protocol, small_config


def _runner(workers=1, **overrides):
    defaults = dict(
        base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal"),
        seeds=(1, 2),
        max_queries=15,
    )
    defaults.update(overrides)
    return GridRunner(GridSpec(**defaults), workers=workers)


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            _runner(protocols=("gossip",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            _runner(scenarios=("meteor-strike",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            _runner(protocols=())
        with pytest.raises(ValueError):
            _runner(scenarios=())
        with pytest.raises(ValueError):
            _runner(seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate entries on the seed"):
            _runner(seeds=(1, 1))

    def test_duplicate_protocols_rejected_at_construction(self):
        """Duplicates must fail at construction (where the CLI catches
        them), not at run() time."""
        with pytest.raises(ValueError, match="duplicate entries on the protocol"):
            _runner(protocols=("flooding", "flooding"))

    def test_duplicate_scenarios_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate entries on the scenario"):
            _runner(scenarios=("baseline", "baseline"))

    def test_bad_workers_and_queries_rejected(self):
        with pytest.raises(ValueError):
            _runner(workers=0)
        with pytest.raises(ValueError):
            _runner(max_queries=0)
        with pytest.raises(ValueError, match="bucket_width"):
            _runner(bucket_width=0)

    def test_default_bucket_width(self):
        assert _runner(max_queries=80).spec.bucket_width == 10
        assert _runner(max_queries=4).spec.bucket_width == 1


class TestDegenerateGrids:
    """Degenerate grid specs fail eagerly, naming the offending axis."""

    def _grid(self, **overrides):
        defaults = dict(
            base_config=small_config(seed=1),
            protocols=("flooding", "locaware"),
            scenarios=("baseline",),
            seeds=(1, 2),
            max_queries=10,
        )
        defaults.update(overrides)
        return GridSpec(**defaults)

    def test_empty_protocol_axis_named(self):
        with pytest.raises(ValueError, match="protocol axis is empty"):
            self._grid(protocols=())

    def test_empty_scenario_axis_named(self):
        with pytest.raises(ValueError, match="scenario axis is empty"):
            self._grid(scenarios=())

    def test_empty_seed_axis_named(self):
        with pytest.raises(ValueError, match="seed axis is empty"):
            self._grid(seeds=())

    def test_empty_override_axis_named(self):
        with pytest.raises(ValueError, match="config-override axis is empty"):
            self._grid(config_overrides=())

    def test_duplicate_protocols_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the protocol axis"
        ):
            self._grid(protocols=("flooding", "flooding"))

    def test_duplicate_scenarios_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the scenario axis"
        ):
            self._grid(scenarios=("baseline", "baseline"))

    def test_duplicate_scenario_specs_detected_through_params(self):
        """Two spellings of the same parameterised scenario collide."""
        with pytest.raises(
            ValueError, match="duplicate entries on the scenario axis"
        ):
            self._grid(
                scenarios=(
                    "diurnal:amplitude=0.3",
                    ("diurnal", {"amplitude": 0.3}),
                )
            )

    def test_duplicate_seeds_named(self):
        with pytest.raises(ValueError, match="duplicate entries on the seed axis"):
            self._grid(seeds=(1, 1))

    def test_duplicate_overrides_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the config-override axis"
        ):
            self._grid(config_overrides=({"ttl": 5}, {"ttl": 5}))

    def test_unknown_scenario_parameter_named(self):
        with pytest.raises(
            ValueError,
            match="scenario axis.*'diurnal' does not accept parameter",
        ):
            self._grid(scenarios=("diurnal:wobble=2",))

    def test_unknown_scenario_named(self):
        with pytest.raises(ValueError, match="scenario axis.*unknown scenario"):
            self._grid(scenarios=("meteor-strike",))

    def test_unknown_protocol_named(self):
        with pytest.raises(ValueError, match="unknown protocol.*protocol axis"):
            self._grid(protocols=("gossip",))

    def test_unknown_config_field_named(self):
        with pytest.raises(
            ValueError, match="unknown config field.*config-override axis"
        ):
            self._grid(config_overrides=({"ttlz": 5},))

    def test_seed_forbidden_on_override_axis(self):
        with pytest.raises(ValueError, match="may not set 'seed'"):
            self._grid(config_overrides=({"seed": 9},))

    def test_invalid_override_value_fails_eagerly(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="ttl"):
            self._grid(config_overrides=({"ttl": 0},))

    def test_non_integer_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be integers"):
            self._grid(seeds=(1, "two"))


class TestOneSweepSurface:
    def test_sweep_runner_is_gone(self):
        import repro.experiments

        with pytest.raises(ImportError):
            from repro.experiments import SweepRunner  # noqa: F401
        assert not [n for n in repro.experiments.__all__ if n.startswith("Sweep")]


class TestRun:
    @pytest.fixture(scope="class")
    def report(self):
        return _runner().run()

    def test_every_cell_has_a_run(self, report):
        assert report.num_cells == 8
        for cell in _runner().spec.expand():
            run = report.runs[cell]
            assert run.protocol_name == cell.protocol
            assert run.scenario_name == cell.scenario.name
            assert run.config.seed == cell.seed

    def test_accessors(self, report):
        run = report.run_for("locaware", "baseline", 2)
        assert run.protocol_name == "locaware"
        assert len(report.seed_runs("flooding", "diurnal")) == 2

    def test_progress_lines_one_per_cell(self):
        lines = []
        _runner(scenarios=("baseline",), seeds=(1,)).run(progress=lines.append)
        assert len(lines) == 2
        assert "[1/2]" in lines[0] and "[2/2]" in lines[1]
        assert "baseline" in lines[0]

    def test_workers_capped_by_cells(self):
        report = _runner(
            protocols=("flooding",), scenarios=("baseline",), seeds=(1,),
            workers=8,
        ).run()
        assert report.num_cells == 1

    def test_aggregate_rows(self, report):
        rows = aggregate_sweep(report)
        assert set(rows) == {
            (scenario, protocol)
            for scenario in ("baseline", "diurnal")
            for protocol in ("flooding", "locaware")
        }
        row = rows[("baseline", "flooding")]
        assert row.seeds == 2
        assert 0.0 <= row.success_rate <= 1.0
        assert row.mean_messages > 0

    def test_render_report(self, report):
        text = render_sweep_report(report)
        assert "scenario: baseline" in text
        assert "scenario: diurnal" in text
        assert "locaware across scenarios" in text
        assert "2 protocols × 2 scenarios × 2 seeds" in text


class TestReuseBuilds:
    def test_reuse_builds_caches_one_build_per_topology(self):
        from repro.experiments.grid import _BLUEPRINT_CACHE
        from repro.overlay.blueprint import build_count

        _BLUEPRINT_CACHE.clear()
        runner = _runner(
            protocols=("flooding", "dicas", "locaware"),
            scenarios=("baseline",),
            seeds=(21, 22),
        )
        before = build_count()
        report = runner.run()
        # Serial reuse: one build per distinct (scenario, seed) topology,
        # shared by all three protocols of the row.
        assert build_count() - before == len(runner.spec.seeds)
        assert report.num_cells == 3 * 2
        _BLUEPRINT_CACHE.clear()

    def test_reuse_builds_matches_scratch(self):
        """Every grid cell equals a direct, blueprint-less run_protocol."""
        runner = _runner(
            protocols=("flooding", "locaware"),
            scenarios=("baseline", "cold-start"),
            seeds=(5, 6),
            max_queries=12,
        )
        spec = runner.spec
        reused = runner.run()
        assert set(reused.runs) == set(spec.expand())
        for cell, run in reused.runs.items():
            scratch = run_protocol(
                spec.cell_config(cell),
                cell.protocol,
                max_queries=spec.max_queries,
                bucket_width=spec.bucket_width,
                scenario=cell.scenario.make(),
            )
            assert run.outcomes == scratch.outcomes, cell
            assert run.metric_snapshot == scratch.metric_snapshot, cell

    def test_reuse_builds_progress_still_one_line_per_cell(self):
        lines = []
        runner = _runner()
        runner.run(progress=lines.append)
        assert len(lines) == runner.spec.num_cells

    def test_blueprint_cache_is_bounded(self, eight_world_cache):
        base = small_config(seed=1)
        for seed in range(1, 8 + 4):
            eight_world_cache.get(base.replace(seed=seed))
        assert len(eight_world_cache) == 8

    def test_cached_blueprint_returns_same_object_for_same_topology(self):
        from repro.experiments.grid import _BLUEPRINT_CACHE

        _BLUEPRINT_CACHE.clear()
        base = small_config(seed=9)
        first = _BLUEPRINT_CACHE.get(base)
        again = _BLUEPRINT_CACHE.get(base.replace(query_rate_per_peer=0.5))
        assert again is first  # runtime-only overrides share the topology
        _BLUEPRINT_CACHE.clear()
