"""Tests for JSON persistence and markdown reporting of results."""

import io
import json
import math

import pytest

from repro.analysis import (
    check_paper_claims,
    claims_report,
    comparison_report,
    comparison_to_document,
    load_comparison_document,
    markdown_table,
    save_comparison,
)
from repro.experiments import run_comparison, small_config


@pytest.fixture(scope="module")
def comparison():
    config = small_config(seed=11).replace(query_rate_per_peer=0.02)
    return run_comparison(config, max_queries=100, bucket_width=50)


class TestDocument:
    def test_document_structure(self, comparison):
        doc = comparison_to_document(comparison)
        assert doc["kind"] == "comparison"
        assert set(doc["runs"]) == set(comparison.runs)
        assert doc["config"]["num_peers"] == comparison.config.num_peers

    def test_document_is_json_serialisable(self, comparison):
        text = json.dumps(comparison_to_document(comparison))
        assert "locaware" in text

    def test_roundtrip_preserves_summaries(self, comparison):
        buffer = io.StringIO()
        save_comparison(comparison, buffer)
        buffer.seek(0)
        loaded = load_comparison_document(buffer)
        for name, run in comparison.runs.items():
            restored = loaded.runs[name].summary
            assert restored.queries == run.summary.queries
            assert restored.success_rate == pytest.approx(run.summary.success_rate)
            assert restored.mean_messages == pytest.approx(run.summary.mean_messages)

    def test_roundtrip_preserves_series(self, comparison):
        buffer = io.StringIO()
        save_comparison(comparison, buffer)
        buffer.seek(0)
        loaded = load_comparison_document(buffer)
        for name, run in comparison.runs.items():
            original = run.series.search_traffic.windowed_means()
            restored = loaded.runs[name].series.search_traffic.windowed_means()
            assert restored == pytest.approx(original, nan_ok=True)

    def test_nan_distances_roundtrip(self, comparison):
        """Failed-query NaNs must survive the None encoding."""
        buffer = io.StringIO()
        save_comparison(comparison, buffer)
        buffer.seek(0)
        loaded = load_comparison_document(buffer)
        for name, run in comparison.runs.items():
            original = run.series.download_distance.windowed_means()
            restored = loaded.runs[name].series.download_distance.windowed_means()
            assert len(original) == len(restored)
            for a, b in zip(original, restored):
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)

    def test_claim_checks_work_on_loaded_results(self, comparison):
        buffer = io.StringIO()
        save_comparison(comparison, buffer)
        buffer.seek(0)
        loaded = load_comparison_document(buffer)
        live = check_paper_claims(comparison.summaries(), comparison.series())
        restored = check_paper_claims(loaded.summaries(), loaded.series())
        assert [c.holds for c in live] == [c.holds for c in restored]

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            load_comparison_document(io.StringIO('{"kind": "other"}'))

    def test_wrong_version_rejected(self):
        doc = '{"kind": "comparison", "format_version": 999, "runs": {}}'
        with pytest.raises(ValueError):
            load_comparison_document(io.StringIO(doc))


class TestMarkdown:
    def test_markdown_table_shape(self):
        text = markdown_table(["a", "b"], [[1, 2.5], ["x", math.nan]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "2.50" in lines[2]
        assert "n/a" in lines[3]

    def test_comparison_report_contains_figures(self, comparison):
        text = comparison_report(comparison, heading="test run")
        assert "### test run" in text
        assert "Figure 2 series" in text
        assert "Figure 3 series" in text
        assert "Figure 4 series" in text
        assert "locaware" in text

    def test_claims_report_lists_all_claims(self, comparison):
        text = claims_report(comparison)
        assert text.count("Fig2") == 2
        assert text.count("Fig3") == 2
        assert text.count("Fig4") == 3


class TestGridReportDocuments:
    """Sweep/grid reports round-trip through the store document format:
    axes, row labels, and every per-run number survive, and the
    aggregate of a restored report matches the live one exactly."""

    @pytest.fixture(scope="class")
    def sweep_report(self):
        from repro.experiments import GridRunner, GridSpec, small_config

        return GridRunner(
            GridSpec(
                base_config=small_config(seed=3).replace(
                    query_rate_per_peer=0.02
                ),
                protocols=("flooding", "locaware"),
                scenarios=("baseline", "diurnal"),
                seeds=(1, 2),
                max_queries=12,
            )
        ).run()

    def _roundtrip(self, report):
        from repro.analysis import load_grid_report_document, save_grid_report

        buffer = io.StringIO()
        save_grid_report(report, buffer)
        buffer.seek(0)
        return load_grid_report_document(buffer)

    def test_document_structure(self, sweep_report):
        from repro.analysis import grid_report_to_document

        doc = grid_report_to_document(sweep_report)
        assert doc["kind"] == "grid-report"
        assert doc["protocols"] == ["flooding", "locaware"]
        assert doc["scenarios"] == ["baseline", "diurnal"]
        assert len(doc["cells"]) == sweep_report.num_cells
        assert json.dumps(doc)  # JSON-serialisable

    def test_axes_roundtrip(self, sweep_report):
        loaded = self._roundtrip(sweep_report)
        assert loaded.protocols == list(sweep_report.protocols)
        assert loaded.scenarios == list(sweep_report.scenarios)
        assert loaded.seeds == list(sweep_report.seeds)
        assert loaded.max_queries == sweep_report.max_queries
        assert loaded.num_cells == sweep_report.num_cells

    def test_aggregate_matches_live_report(self, sweep_report):
        from repro.analysis import aggregate_sweep, render_sweep_report

        loaded = self._roundtrip(sweep_report)
        assert repr(aggregate_sweep(loaded)) == repr(aggregate_sweep(sweep_report))
        assert render_sweep_report(loaded) == render_sweep_report(sweep_report)

    def test_summaries_roundtrip_exactly(self, sweep_report):
        loaded = self._roundtrip(sweep_report)
        for scenario in sweep_report.scenarios:
            for protocol in sweep_report.protocols:
                for seed in sweep_report.seeds:
                    live = sweep_report.run_for(protocol, scenario, seed)
                    restored = loaded.run_for(protocol, scenario, seed)
                    assert restored.summary.queries == live.summary.queries
                    assert restored.locally_satisfied == live.locally_satisfied
                    assert restored.sim_time_s == live.sim_time_s

    def test_document_is_byte_stable(self, sweep_report):
        from repro.analysis import save_grid_report

        a, b = io.StringIO(), io.StringIO()
        save_grid_report(sweep_report, a)
        save_grid_report(sweep_report, b)
        assert a.getvalue() == b.getvalue()

    def test_wrong_kind_rejected(self):
        from repro.analysis import load_grid_report_document

        with pytest.raises(ValueError, match="not a grid-report"):
            load_grid_report_document(io.StringIO('{"kind": "comparison"}'))

    def test_grid_report_with_parameterised_rows_roundtrips(self):
        from repro.analysis import aggregate_sweep
        from repro.experiments import GridRunner, GridSpec, small_config

        spec = GridSpec(
            base_config=small_config(seed=3).replace(query_rate_per_peer=0.02),
            protocols=("flooding",),
            scenarios=("diurnal:amplitude=0.3",),
            config_overrides=({"ttl": 5},),
            seeds=(1,),
            max_queries=10,
        )
        report = GridRunner(spec).run()
        loaded = self._roundtrip(report)
        assert loaded.scenarios == ["diurnal[amplitude=0.3] @ ttl=5"]
        assert repr(aggregate_sweep(loaded)) == repr(aggregate_sweep(report))


class TestGridCellDocuments:
    def test_cell_document_roundtrip(self):
        from repro.analysis import (
            grid_cell_to_document,
            load_grid_cell_document,
            run_to_document,
        )
        from repro.experiments import GridRunner, GridSpec, small_config

        spec = GridSpec(
            base_config=small_config(seed=3).replace(query_rate_per_peer=0.02),
            protocols=("locaware",),
            scenarios=("baseline",),
            seeds=(1,),
            max_queries=10,
        )
        report = GridRunner(spec).run()
        cell, run = next(iter(report.runs.items()))
        doc = grid_cell_to_document(
            cell,
            run,
            key=spec.cell_key(cell),
            max_queries=spec.max_queries,
            bucket_width=spec.bucket_width,
            topology_fingerprint="f" * 64,
        )
        assert doc["kind"] == "grid-cell"
        assert doc["cell"]["label"] == "baseline"
        restored = load_grid_cell_document(doc)
        assert run_to_document(restored) == doc["run"]

    def test_wrong_kind_rejected(self):
        from repro.analysis import load_grid_cell_document

        with pytest.raises(ValueError, match="not a grid-cell"):
            load_grid_cell_document({"kind": "comparison"})


class TestScenarioProvenance:
    """A persisted scenario comparison must say which regime produced it
    and record the configuration the runs actually used."""

    def test_baseline_document_has_null_scenario(self, comparison):
        doc = comparison_to_document(comparison)
        assert doc["scenario"] is None

    def test_scenario_comparison_records_regime_and_effective_config(self):
        config = small_config(seed=11).replace(query_rate_per_peer=0.02)
        result = run_comparison(
            config,
            max_queries=15,
            bucket_width=5,
            protocols=("flooding",),
            scenario="cold-start",
        )
        assert result.scenario_name == "cold-start"
        # cold-start starves initial replication; the recorded config
        # must be the one the runs actually used, not the base config.
        assert result.config.files_per_peer == 1
        doc = comparison_to_document(result)
        assert doc["scenario"] == "cold-start"
        assert doc["config"]["files_per_peer"] == 1

    def test_scenario_roundtrips_through_load(self):
        config = small_config(seed=11).replace(query_rate_per_peer=0.02)
        result = run_comparison(
            config,
            max_queries=15,
            bucket_width=5,
            protocols=("flooding",),
            scenario="cold-start",
        )
        buffer = io.StringIO()
        save_comparison(result, buffer)
        buffer.seek(0)
        loaded = load_comparison_document(buffer)
        assert loaded.scenario_name == "cold-start"

    def test_pre_scenario_documents_still_load(self, comparison):
        """Documents written before the scenario key existed load with
        scenario_name=None."""
        doc = comparison_to_document(comparison)
        del doc["scenario"]
        loaded = load_comparison_document(io.StringIO(json.dumps(doc)))
        assert loaded.scenario_name is None
