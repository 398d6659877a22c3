"""Tests for JSON persistence and markdown reporting of results."""

import math

import pytest

from repro.analysis import (
    aggregate_sweep,
    check_paper_claims,
    claims_report,
    comparison_report,
    comparison_slice,
    markdown_table,
)
from repro.experiments import GridRunner, GridSpec, small_config
from repro.results import ResultStore
from test_analysis import statements


def _stored(report, root):
    """``report``'s grid run cold through a store at ``root``, then read
    back warm: every run of the returned report was loaded from its
    stored document, none executed."""
    GridRunner(report.spec, store=ResultStore(root)).run()
    warm = GridRunner(report.spec, store=ResultStore(root)).run()
    assert (warm.executed, warm.cached) == (0, report.num_cells)
    return warm


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
        for statement in statements():
            assert f"| {statement} | " in text
        assert text.count("Fig2") == 3
        assert text.count("Fig3") == 4
        assert text.count("Fig4") == 3


class TestStoredGridReports:
    """A grid read back from a result store answers what the live grid
    did: axes, row labels, every per-run number, NaN distances and
    claim checks survive the ``grid-cell`` documents, and the
    aggregate of a stored grid matches the live one exactly."""

    @pytest.fixture(scope="class")
    def stored_comparison(self, comparison_report_run, tmp_path_factory):
        return _stored(comparison_report_run, tmp_path_factory.mktemp("store"))

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

    @pytest.fixture(scope="class")
    def sweep_store(self, sweep_report, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep")
        return root, _stored(sweep_report, root)

    def test_one_grid_cell_document_per_cell(self, sweep_report, sweep_store):
        root, _loaded = sweep_store
        store = ResultStore(root)
        spec = sweep_report.spec
        assert sorted(store.keys()) == sorted(
            spec.cell_key(cell) for cell in spec.expand()
        )
        for key in store.keys():
            document = store.get(key)
            assert document["kind"] == "grid-cell"
            assert document["key"] == key
            assert document["max_queries"] == sweep_report.max_queries

    def test_axes_roundtrip(self, sweep_report, sweep_store):
        _root, loaded = sweep_store
        assert loaded.protocols == sweep_report.protocols
        assert loaded.scenarios == sweep_report.scenarios
        assert loaded.seeds == sweep_report.seeds
        assert loaded.max_queries == sweep_report.max_queries
        assert loaded.num_cells == sweep_report.num_cells

    def test_aggregate_matches_live_report(self, sweep_report, sweep_store):
        from repro.analysis import render_sweep_report

        _root, loaded = sweep_store
        assert repr(aggregate_sweep(loaded)) == repr(aggregate_sweep(sweep_report))
        assert render_sweep_report(loaded) == render_sweep_report(sweep_report)

    def test_summaries_roundtrip_exactly(self, sweep_report, sweep_store):
        _root, loaded = sweep_store
        for scenario in sweep_report.scenarios:
            for protocol in sweep_report.protocols:
                for seed in sweep_report.seeds:
                    live = sweep_report.run_for(protocol, scenario, seed)
                    restored = loaded.run_for(protocol, scenario, seed)
                    assert restored.summary.queries == live.summary.queries
                    assert restored.locally_satisfied == live.locally_satisfied
                    assert restored.sim_time_s == live.sim_time_s

    def test_roundtrip_preserves_series(self, sweep_report, sweep_store):
        _root, loaded = sweep_store
        for cell, run in sweep_report.runs.items():
            restored = loaded.run_for(cell.protocol, cell.label, cell.seed)
            assert restored.series.search_traffic.windowed_means() == (
                pytest.approx(run.series.search_traffic.windowed_means(), nan_ok=True)
            )

    def test_stored_documents_are_byte_stable(
        self, sweep_report, sweep_store, tmp_path
    ):
        """The same grid committed to two stores gives the same bytes
        under the same keys."""
        root, _loaded = sweep_store
        GridRunner(sweep_report.spec, store=ResultStore(tmp_path)).run()
        first, second = ResultStore(root), ResultStore(tmp_path)
        assert sorted(first.keys()) == sorted(second.keys())
        for key in first.keys():
            assert first.get_raw(key) == second.get_raw(key)

    def test_nan_distances_roundtrip(self, comparison_report_run, stored_comparison):
        """Failed-query NaNs must survive the None encoding."""
        loaded = comparison_slice(stored_comparison)
        for name, run in comparison_slice(comparison_report_run).runs.items():
            original = run.series.download_distance.windowed_means()
            restored = loaded.runs[name].series.download_distance.windowed_means()
            assert len(original) == len(restored)
            for a, b in zip(original, restored):
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)

    def test_claim_checks_work_on_loaded_results(
        self, comparison_report_run, stored_comparison
    ):
        live = comparison_slice(comparison_report_run)
        loaded = comparison_slice(stored_comparison)
        assert loaded.bucket_edges() == live.bucket_edges()
        assert check_paper_claims(loaded) == check_paper_claims(live)

    def test_grid_report_with_parameterised_rows_roundtrips(self, tmp_path):
        spec = GridSpec(
            base_config=small_config(seed=3).replace(query_rate_per_peer=0.02),
            protocols=("flooding",),
            scenarios=("diurnal:amplitude=0.3",),
            config_overrides=({"ttl": 5},),
            seeds=(1,),
            max_queries=10,
        )
        report = GridRunner(spec).run()
        loaded = _stored(report, tmp_path)
        assert loaded.scenarios == ("diurnal[amplitude=0.3] @ ttl=5",)
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

    def test_wrong_version_rejected(self):
        from repro.analysis import load_grid_cell_document

        with pytest.raises(ValueError, match="format version 999"):
            load_grid_cell_document({"kind": "grid-cell", "format_version": 999})


class TestComparisonSlice:
    """One (row, seed) of a grid report."""

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
    """A scenario comparison must say which regime produced it, stored
    or not, and record the configuration the runs actually used."""

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

    def test_scenario_roundtrips_through_the_store(self, cold_start, tmp_path):
        assert comparison_slice(_stored(cold_start, tmp_path)).row == "cold-start"
