"""Tests for JSON persistence and markdown reporting of results."""

import io
import json
import math

import pytest

from repro.analysis import (
    PAPER_CLAIMS,
    check_paper_claims,
    claims_report,
    comparison_report,
    comparison_slice,
    load_grid_report_document,
    markdown_table,
    save_grid_report,
)
from repro.experiments import GridRunner, GridSpec, small_config


def _roundtrip(report):
    buffer = io.StringIO()
    save_grid_report(report, buffer)
    buffer.seek(0)
    return load_grid_report_document(buffer)


@pytest.fixture(scope="module")
def comparison_report_run():
    """The four protocols on one seed: what ``repro figures`` runs."""
    return GridRunner(
        GridSpec(
            base_config=small_config().replace(query_rate_per_peer=0.02),
            seeds=(11,),
            max_queries=100,
            bucket_width=50,
        )
    ).run()


@pytest.fixture(scope="module")
def comparison(comparison_report_run):
    return comparison_slice(comparison_report_run)


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
        for claim in PAPER_CLAIMS:
            assert f"| {claim.statement} | " in text
        assert text.count("Fig2") == 3
        assert text.count("Fig3") == 4
        assert text.count("Fig4") == 3


class TestGridReportDocuments:
    """Sweep/grid reports round-trip through the store document format:
    axes, row labels, and every per-run number survive, and the
    aggregate of a restored report matches the live one exactly."""

    @pytest.fixture(scope="class")
    def sweep_report(self):
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

    def test_document_structure(self, sweep_report):
        from repro.analysis import grid_report_to_document

        doc = grid_report_to_document(sweep_report)
        assert doc["kind"] == "grid-report"
        assert doc["protocols"] == ["flooding", "locaware"]
        assert doc["scenarios"] == ["baseline", "diurnal"]
        assert len(doc["cells"]) == sweep_report.num_cells
        assert json.dumps(doc)  # JSON-serialisable

    def test_axes_roundtrip(self, sweep_report):
        loaded = _roundtrip(sweep_report)
        assert loaded.protocols == list(sweep_report.protocols)
        assert loaded.scenarios == list(sweep_report.scenarios)
        assert loaded.seeds == list(sweep_report.seeds)
        assert loaded.max_queries == sweep_report.max_queries
        assert loaded.num_cells == sweep_report.num_cells

    def test_aggregate_matches_live_report(self, sweep_report):
        from repro.analysis import aggregate_sweep, render_sweep_report

        loaded = _roundtrip(sweep_report)
        assert repr(aggregate_sweep(loaded)) == repr(aggregate_sweep(sweep_report))
        assert render_sweep_report(loaded) == render_sweep_report(sweep_report)

    def test_summaries_roundtrip_exactly(self, sweep_report):
        loaded = _roundtrip(sweep_report)
        for scenario in sweep_report.scenarios:
            for protocol in sweep_report.protocols:
                for seed in sweep_report.seeds:
                    live = sweep_report.run_for(protocol, scenario, seed)
                    restored = loaded.run_for(protocol, scenario, seed)
                    assert restored.summary.queries == live.summary.queries
                    assert restored.locally_satisfied == live.locally_satisfied
                    assert restored.sim_time_s == live.sim_time_s

    def test_document_is_byte_stable(self, sweep_report):
        a, b = io.StringIO(), io.StringIO()
        save_grid_report(sweep_report, a)
        save_grid_report(sweep_report, b)
        assert a.getvalue() == b.getvalue()

    def test_roundtrip_preserves_series(self, sweep_report):
        loaded = _roundtrip(sweep_report)
        for cell, run in sweep_report.runs.items():
            restored = loaded.run_for(cell.protocol, cell.label, cell.seed)
            assert restored.series.search_traffic.windowed_means() == (
                pytest.approx(run.series.search_traffic.windowed_means(), nan_ok=True)
            )

    def test_nan_distances_roundtrip(self, comparison_report_run):
        """Failed-query NaNs must survive the None encoding."""
        loaded = comparison_slice(_roundtrip(comparison_report_run))
        for name, run in comparison_slice(comparison_report_run).runs.items():
            original = run.series.download_distance.windowed_means()
            restored = loaded.runs[name].series.download_distance.windowed_means()
            assert len(original) == len(restored)
            for a, b in zip(original, restored):
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)

    def test_claim_checks_work_on_loaded_results(self, comparison_report_run):
        live = comparison_slice(comparison_report_run)
        loaded = comparison_slice(_roundtrip(comparison_report_run))
        assert loaded.bucket_edges() == live.bucket_edges()
        assert check_paper_claims(loaded) == check_paper_claims(live)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a grid-report"):
            load_grid_report_document(io.StringIO('{"kind": "comparison"}'))

    def test_wrong_version_rejected(self):
        doc = '{"kind": "grid-report", "format_version": 999, "cells": []}'
        with pytest.raises(ValueError, match="format version 999"):
            load_grid_report_document(io.StringIO(doc))

    def test_grid_report_with_parameterised_rows_roundtrips(self):
        from repro.analysis import aggregate_sweep
        spec = GridSpec(
            base_config=small_config(seed=3).replace(query_rate_per_peer=0.02),
            protocols=("flooding",),
            scenarios=("diurnal:amplitude=0.3",),
            config_overrides=({"ttl": 5},),
            seeds=(1,),
            max_queries=10,
        )
        report = GridRunner(spec).run()
        loaded = _roundtrip(report)
        assert loaded.scenarios == ["diurnal[amplitude=0.3] @ ttl=5"]
        assert repr(aggregate_sweep(loaded)) == repr(aggregate_sweep(report))


class TestGridCellDocuments:
    def test_cell_document_roundtrip(self):
        from repro.analysis import (
            grid_cell_to_document,
            load_grid_cell_document,
            run_to_document,
        )
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


class TestComparisonSlice:
    """One (row, seed) of a live or a restored grid report."""

    def test_the_only_slice_is_the_default(self, sweep_report_one_row):
        result = comparison_slice(sweep_report_one_row)
        assert (result.row, result.seed) == ("baseline", 1)
        assert list(result.runs) == ["flooding", "locaware"]

    def test_a_many_slice_report_needs_a_choice(self):
        report = GridRunner(
            GridSpec(
                base_config=small_config(),
                protocols=("flooding",),
                scenarios=("baseline", "diurnal"),
                seeds=(1, 2),
                max_queries=5,
            )
        ).run()
        with pytest.raises(ValueError) as error:
            comparison_slice(report)
        assert "rows: baseline, diurnal; seeds: 1, 2" in str(error.value)
        chosen = comparison_slice(report, "diurnal", 2)
        assert chosen.runs["flooding"] is report.run_for("flooding", "diurnal", 2)

    @pytest.fixture(scope="class")
    def sweep_report_one_row(self):
        return GridRunner(
            GridSpec(
                base_config=small_config(),
                protocols=("flooding", "locaware"),
                seeds=(1,),
                max_queries=5,
            )
        ).run()


class TestScenarioProvenance:
    """A persisted scenario comparison must say which regime produced it
    and record the configuration the runs actually used."""

    @pytest.fixture(scope="class")
    def cold_start(self):
        return GridRunner(
            GridSpec(
                base_config=small_config().replace(query_rate_per_peer=0.02),
                protocols=("flooding",),
                scenarios=("cold-start",),
                seeds=(11,),
                max_queries=15,
                bucket_width=5,
            )
        ).run()

    def test_scenario_comparison_records_regime_and_effective_config(
        self, cold_start
    ):
        result = comparison_slice(cold_start)
        assert result.row == "cold-start"
        # cold-start starves initial replication; the run must carry the
        # config it actually used, not the base config.
        assert result.runs["flooding"].config.files_per_peer == 1

    def test_scenario_roundtrips_through_load(self, cold_start):
        assert comparison_slice(_roundtrip(cold_start)).row == "cold-start"
