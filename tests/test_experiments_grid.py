"""Tests for the experiment-grid subsystem: specs, runner, resume.

The resume contract under test: a grid run against a result store
persists every completed cell under a content-addressed key; re-running
the identical grid executes zero cells; deleting exactly one cell file
re-executes exactly that cell; and the aggregate of a resumed run is
byte-identical to an uninterrupted one.
"""

import math

import pytest

import repro.results.store as store_module
from repro.analysis import aggregate_sweep, render_sweep_report
from repro.experiments import (
    GridRunner,
    GridSpec,
    ScenarioSpec,
    small_config,
)
from repro.results import ResultStore
from repro.scenarios import make_scenario, scenario_parameters


def _base_config(seed=1):
    return small_config(seed=seed).replace(query_rate_per_peer=0.02)


def _spec(**overrides):
    defaults = dict(
        base_config=_base_config(),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal:amplitude=0.3"),
        seeds=(1, 2),
        max_queries=10,
    )
    defaults.update(overrides)
    return GridSpec(**defaults)


class TestMakeScenario:
    def test_no_params_builds_the_registered_class_at_its_defaults(self):
        from repro.scenarios import SCENARIO_REGISTRY

        scenario = make_scenario("flash-crowd")
        assert type(scenario) is SCENARIO_REGISTRY["flash-crowd"]
        assert (scenario.spike_time_s, scenario.spike_probability) == (None, 0.8)

    def test_params_build_fresh_variant(self):
        scenario = make_scenario("churn-storm", storm_time_s=30.0)
        assert scenario.storm_time_s == 30.0
        assert scenario is not make_scenario("churn-storm")

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            make_scenario("diurnal", wobble=3)

    def test_unknown_scenario_propagates(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("meteor-strike")

    def test_bad_value_surfaces_from_constructor(self):
        with pytest.raises(ValueError, match="storm_time_s"):
            make_scenario("churn-storm", storm_time_s=-1.0)

    def test_scenario_parameters_inventory(self):
        assert scenario_parameters("baseline") == []
        assert scenario_parameters("diurnal") == ["amplitude", "period_s"]
        assert "storm_session_s" in scenario_parameters("churn-storm")


class TestScenarioSpec:
    def test_parse_plain_name(self):
        spec = ScenarioSpec.parse("baseline")
        assert spec == ScenarioSpec("baseline")
        assert spec.label == "baseline"

    def test_parse_with_params(self):
        spec = ScenarioSpec.parse("churn-storm:storm_time_s=30,storm_session_s=60")
        assert spec.name == "churn-storm"
        assert spec.params_dict() == {"storm_time_s": 30, "storm_session_s": 60}
        assert spec.label == "churn-storm[storm_session_s=60,storm_time_s=30]"

    def test_parse_value_types(self):
        spec = ScenarioSpec.parse("flash-crowd:spike_probability=0.9")
        assert spec.params_dict() == {"spike_probability": 0.9}

    def test_parse_malformed(self):
        with pytest.raises(ValueError, match="malformed scenario parameter"):
            ScenarioSpec.parse("diurnal:amplitude")

    def test_coerce_forms(self):
        expected = ScenarioSpec("diurnal", (("amplitude", 0.3),))
        assert ScenarioSpec.coerce("diurnal:amplitude=0.3") == expected
        assert ScenarioSpec.coerce(("diurnal", {"amplitude": 0.3})) == expected
        assert (
            ScenarioSpec.coerce({"name": "diurnal", "params": {"amplitude": 0.3}})
            == expected
        )
        assert ScenarioSpec.coerce(expected) is expected
        with pytest.raises(ValueError, match="cannot interpret"):
            ScenarioSpec.coerce(42)


class TestGridSpec:
    def test_expand_covers_the_full_product(self):
        spec = _spec(config_overrides=({}, {"ttl": 5}))
        cells = spec.expand()
        assert len(cells) == spec.num_cells == 2 * 2 * 2 * 2
        assert len(set(cells)) == len(cells)
        first = cells[0]
        assert first.protocol == "flooding"
        assert first.scenario.name == "baseline"
        assert first.seed == 1

    def test_cell_config_applies_overrides_then_seed(self):
        spec = _spec(config_overrides=({"ttl": 5},))
        cell = spec.expand()[-1]
        config = spec.cell_config(cell)
        assert config.ttl == 5
        assert config.seed == cell.seed

    def test_cell_labels(self):
        spec = _spec(config_overrides=({"ttl": 5},))
        labels = {cell.label for cell in spec.expand()}
        assert labels == {"baseline @ ttl=5", "diurnal[amplitude=0.3] @ ttl=5"}

    def test_cell_keys_unique_across_the_grid(self):
        spec = _spec(config_overrides=({}, {"ttl": 5}))
        keys = [spec.cell_key(cell) for cell in spec.expand()]
        assert len(set(keys)) == len(keys)

    def test_cell_key_stable_across_spec_instances(self):
        a, b = _spec(), _spec()
        for cell_a, cell_b in zip(a.expand(), b.expand()):
            assert a.cell_key(cell_a) == b.cell_key(cell_b)

    def test_key_resolves_scenario_defaults(self):
        """An explicit parameter equal to the constructor default keys
        identically to omitting it (identical results ⇒ one cache
        entry), and the resolved defaults are visible in the payload —
        so changing a default would change every key."""
        implicit = _spec(scenarios=("diurnal",))
        default = make_scenario("diurnal").amplitude
        explicit = _spec(scenarios=(f"diurnal:amplitude={default}",))
        cell_implicit = implicit.expand()[0]
        cell_explicit = explicit.expand()[0]
        payload = implicit.cell_key_payload(cell_implicit)
        assert payload["scenario"]["params"]["amplitude"] == default
        assert implicit.cell_key(cell_implicit) == explicit.cell_key(
            cell_explicit
        )

    def test_runtime_override_changes_the_key_despite_same_topology(self):
        """ttl is not a topology field, but it changes results — the
        key must see it even though the fingerprint does not."""
        plain = _spec()
        tweaked = _spec(config_overrides=({"ttl": 5},))
        cell_plain = plain.expand()[0]
        cell_tweaked = tweaked.expand()[0]
        payload_plain = plain.cell_key_payload(cell_plain)
        payload_tweaked = tweaked.cell_key_payload(cell_tweaked)
        assert (
            payload_plain["topology_fingerprint"]
            == payload_tweaked["topology_fingerprint"]
        )
        assert plain.cell_key(cell_plain) != tweaked.cell_key(cell_tweaked)

    def test_to_dict_from_dict_roundtrip(self):
        spec = _spec(config_overrides=({}, {"ttl": 5}))
        restored = GridSpec.from_dict(spec.to_dict())
        assert restored.expand() == spec.expand()
        assert [restored.cell_key(c) for c in restored.expand()] == [
            spec.cell_key(c) for c in spec.expand()
        ]


class TestGridRun:
    @pytest.fixture(scope="class")
    def report(self):
        return GridRunner(_spec()).run()

    def test_every_cell_ran(self, report):
        assert report.num_cells == 8
        assert report.executed == 8
        assert report.cached == 0

    def test_row_labels_and_accessors(self, report):
        assert report.scenarios == ("baseline", "diurnal[amplitude=0.3]")
        run = report.run_for("locaware", "diurnal[amplitude=0.3]", 2)
        assert run.protocol_name == "locaware"
        assert len(report.seed_runs("flooding", "baseline")) == 2
        with pytest.raises(KeyError, match="no grid row"):
            report.run_for("locaware", "nope", 2)

    def test_aggregate_and_render(self, report):
        rows = aggregate_sweep(report)
        assert set(rows) == {
            (label, protocol)
            for label in ("baseline", "diurnal[amplitude=0.3]")
            for protocol in ("flooding", "locaware")
        }
        text = render_sweep_report(report)
        assert "scenario: diurnal[amplitude=0.3]" in text

    def test_progress_one_line_per_executed_cell(self):
        lines = []
        GridRunner(_spec(scenarios=("baseline",), seeds=(1,))).run(
            progress=lines.append
        )
        assert len(lines) == 2
        assert "[1/2]" in lines[0] and "baseline" in lines[0]

    def test_parameterised_scenario_reaches_the_run(self):
        spec = _spec(
            protocols=("locaware",),
            scenarios=("churn-storm:storm_session_s=120",),
            seeds=(1,),
        )
        report = GridRunner(spec).run()
        run = report.run_for("locaware", "churn-storm[storm_session_s=120]", 1)
        assert run.config.churn_enabled  # configure() ran on the variant


class TestResume:
    GRID = dict(
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal:amplitude=0.3"),
        seeds=(1, 2),
        max_queries=10,
    )

    def test_identical_rerun_executes_zero_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = GridRunner(_spec(**self.GRID), store=store).run()
        assert (cold.executed, cold.cached) == (8, 0)
        warm = GridRunner(_spec(**self.GRID), store=store).run()
        assert (warm.executed, warm.cached) == (0, 8)
        assert len(store) == 8

    def test_every_protocol_and_a_flash_crowd_resume_from_the_store(self, tmp_path):
        grid = dict(
            self.GRID,
            protocols=("flooding", "dicas", "dicas-keys", "locaware"),
            scenarios=("baseline", "flash-crowd:spike_probability=0.9"),
        )
        store = ResultStore(tmp_path)
        cold = GridRunner(_spec(**grid), store=store).run()
        assert (cold.executed, cold.cached) == (16, 0)
        warm = GridRunner(_spec(**grid), store=store).run()
        assert (warm.executed, warm.cached) == (0, 16)
        spec = _spec(**grid)
        store.delete(spec.cell_key(spec.expand()[0]))
        resumed = GridRunner(spec, store=store).run()
        assert (resumed.executed, resumed.cached) == (1, 15)

    def test_delete_one_cell_reruns_exactly_that_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        uninterrupted = GridRunner(_spec(**self.GRID), store=store).run()
        baseline_rows = aggregate_sweep(uninterrupted)
        baseline_text = render_sweep_report(uninterrupted)

        spec = _spec(**self.GRID)
        victim = spec.expand()[3]
        assert store.delete(spec.cell_key(victim)) is True

        lines = []
        resumed = GridRunner(spec, store=store).run(progress=lines.append)
        assert (resumed.executed, resumed.cached) == (1, 7)
        assert len(lines) == 1
        assert victim.protocol in lines[0]
        assert f"seed {victim.seed}" in lines[0]

        # The aggregate of the resumed grid is byte-identical to the
        # uninterrupted one — rows and rendered report alike (repr
        # comparison so identical NaNs count as equal).
        assert repr(aggregate_sweep(resumed)) == repr(baseline_rows)
        assert render_sweep_report(resumed) == baseline_text

    def test_store_normalises_fresh_and_cached_runs_alike(self, tmp_path):
        """With a store attached, an executed cell's reported run equals
        the run a later cached read restores — the document round-trip
        is a fixed point."""
        from repro.analysis import run_to_document

        store = ResultStore(tmp_path)
        spec = _spec(**self.GRID)
        cold = GridRunner(spec, store=store).run()
        warm = GridRunner(spec, store=store).run()
        assert set(cold.runs) == set(warm.runs)
        for cell, run in cold.runs.items():
            assert run_to_document(run) == run_to_document(warm.runs[cell]), cell

    def test_changed_horizon_misses_the_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        GridRunner(_spec(**self.GRID), store=store).run()
        changed = dict(self.GRID, max_queries=12)
        report = GridRunner(_spec(**changed), store=store).run()
        assert report.executed == 8
        assert report.cached == 0

    def test_schema_1_store_is_re_executed_not_served(self, tmp_path, monkeypatch):
        """Schema 2 is the stop-at-settle timeline: cells a schema-1
        runner stored (they ran on to a 500 s boundary) must miss."""
        import repro.results.keys as keys

        assert keys.SCHEMA_VERSION == 2
        grid = dict(self.GRID, scenarios=("baseline",))
        store = ResultStore(tmp_path)
        monkeypatch.setattr(keys, "SCHEMA_VERSION", 1)
        old = GridRunner(_spec(**grid), store=store).run()
        assert (old.executed, old.cached) == (4, 0)
        monkeypatch.undo()
        new = GridRunner(_spec(**grid), store=store).run()
        assert (new.executed, new.cached) == (4, 0)
        assert len(store) == 8
        assert all(run.sim_time_s % 500.0 != 0.0 for run in new.runs.values())
        warm = GridRunner(_spec(**grid), store=store).run()
        assert (warm.executed, warm.cached) == (0, 4)

    def test_storeless_runner_always_executes(self):
        spec = _spec(protocols=("flooding",), scenarios=("baseline",), seeds=(1,))
        report = GridRunner(spec).run()
        again = GridRunner(spec).run()
        assert report.executed == again.executed == 1

    def test_workers_and_store_compose(self, tmp_path):
        from repro.analysis import run_to_document

        serial = GridRunner(
            _spec(**self.GRID), store=ResultStore(tmp_path / "s")
        ).run()
        parallel = GridRunner(
            _spec(**self.GRID), workers=3, store=ResultStore(tmp_path / "p")
        ).run()
        assert set(serial.runs) == set(parallel.runs)
        for cell in serial.runs:
            assert run_to_document(serial.runs[cell]) == run_to_document(
                parallel.runs[cell]
            ), cell


class TestClaimAwareRunner:
    """Crash-safety of the skip→claim→execute→commit loop: stale
    leases are reclaimed and re-executed exactly once, corrupt cells
    are quarantined and re-run, live foreign claims are waited out,
    and no claim files outlive a completed grid."""

    GRID = dict(
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal:amplitude=0.3"),
        seeds=(1, 2),
        max_queries=10,
    )

    def _runner(self, store, **kwargs):
        kwargs.setdefault("poll_interval_s", 0.01)
        return GridRunner(_spec(**self.GRID), store=store, **kwargs)

    def test_no_claims_survive_a_completed_grid(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = self._runner(store, runner_id="solo")
        report = runner.run()
        assert report.executed == 8
        assert list(runner.claims.claims()) == []
        assert not list(runner.claims.directory.glob("*"))

    def test_runner_id_surfaces(self, tmp_path):
        runner = self._runner(ResultStore(tmp_path), runner_id="me-1")
        assert runner.runner_id == "me-1"
        assert GridRunner(_spec(**self.GRID)).runner_id is None

    def test_stale_claim_is_reclaimed_and_executed_exactly_once(
        self, tmp_path
    ):
        from repro.results import ClaimStore

        store = ResultStore(tmp_path)
        baseline = self._runner(store).run()
        spec = _spec(**self.GRID)
        victim = spec.expand()[2]
        key = spec.cell_key(victim)
        assert store.delete(key)
        # A runner died holding the claim: lease TTL 0 = instantly stale.
        dead = ClaimStore(store.root, runner_id="dead", lease_ttl_s=0.0)
        assert dead.try_claim(key)

        lines = []
        report = self._runner(store, runner_id="heir").run(
            progress=lines.append
        )
        assert (report.executed, report.cached) == (1, 7)
        executed_lines = [line for line in lines if victim.protocol in line]
        assert len(executed_lines) == 1  # exactly once
        # The heir's commit matches the original byte for byte.
        assert store.has(key)
        assert repr(aggregate_sweep(report)) == repr(
            aggregate_sweep(baseline)
        )

    def test_live_foreign_claim_is_waited_out(self, tmp_path):
        """A cell claimed by a live runner is not duplicated: this
        runner polls until the other commits, then takes it as cached."""
        import threading

        from repro.results import ClaimStore

        store = ResultStore(tmp_path)
        self._runner(store).run()
        spec = _spec(**self.GRID)
        cell = spec.expand()[0]
        key = spec.cell_key(cell)
        document = store.get(key)
        store.delete(key)
        other = ClaimStore(store.root, runner_id="other", lease_ttl_s=60.0)
        assert other.try_claim(key)

        def commit_soon():
            store.put(key, document)
            other.release(key)

        timer = threading.Timer(0.15, commit_soon)
        timer.start()
        try:
            lines = []
            report = self._runner(store).run(progress=lines.append)
        finally:
            timer.cancel()
        assert (report.executed, report.cached) == (0, 8)
        assert any("waiting" in line for line in lines)

    def test_semantically_corrupt_cell_quarantined_and_rerun(self, tmp_path):
        """A document that *parses* but is not a grid cell (schema
        drift, operator edit) heals the same way as byte corruption:
        quarantined, re-executed, no claims leaked."""
        store = ResultStore(tmp_path)
        self._runner(store).run()
        spec = _spec(**self.GRID)
        key = spec.cell_key(spec.expand()[4])
        store.put(key, {"kind": "grid-cell"})  # valid JSON, wrong shape

        runner = self._runner(store, runner_id="healer")
        report = runner.run()
        assert (report.executed, report.cached, report.quarantined) == (
            1,
            7,
            1,
        )
        assert store.path_for(key).with_name(f"{key}.json.corrupt").is_file()
        assert store.has(key)  # recommitted
        assert list(runner.claims.claims()) == []  # nothing leaked

    def test_corrupt_cell_quarantined_and_rerun_once(self, tmp_path):
        store = ResultStore(tmp_path)
        self._runner(store).run()
        spec = _spec(**self.GRID)
        key = spec.cell_key(spec.expand()[5])
        store.path_for(key).write_text("{definitely not json")

        lines = []
        report = self._runner(store).run(progress=lines.append)
        assert (report.executed, report.cached, report.quarantined) == (
            1,
            7,
            1,
        )
        assert any("quarantined" in line for line in lines)
        quarantined = store.path_for(key).with_name(f"{key}.json.corrupt")
        assert quarantined.is_file()
        assert store.has(key)  # recommitted

    def test_orphaned_claim_on_a_stored_cell_is_pruned(self, tmp_path):
        """Crash between put and release: the cell is stored but its
        claim file survives.  The next run prunes it and cache-hits."""
        from repro.results import ClaimStore

        store = ResultStore(tmp_path)
        self._runner(store).run()
        spec = _spec(**self.GRID)
        key = spec.cell_key(spec.expand()[0])
        orphan = ClaimStore(store.root, runner_id="crashed", lease_ttl_s=3600)
        assert orphan.try_claim(key)

        report = self._runner(store).run()
        assert (report.executed, report.cached) == (0, 8)
        assert orphan.get(key) is None  # pruned, not waited on

    def test_old_tmp_litter_is_swept_at_run_start(self, tmp_path):
        import os

        store = ResultStore(tmp_path)
        self._runner(store).run()
        key = next(store.keys())
        litter = store.root / key[:2] / f".{'f' * 64}.999.tmp"
        litter.write_text("{")
        ancient = os.path.getmtime(litter) - 86400
        os.utime(litter, (ancient, ancient))
        report = self._runner(store).run()
        assert (report.executed, report.cached) == (0, 8)
        assert not litter.exists()

    def test_interrupted_batch_releases_its_claims(self, tmp_path):
        """An exception mid-batch must not leave claims behind for the
        TTL to time out — surviving runners take over immediately."""
        store = ResultStore(tmp_path)
        runner = self._runner(store, runner_id="doomed")
        original = store.put
        calls = {"n": 0}

        def exploding_put(key, document):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("disk full")
            return original(key, document)

        store.put = exploding_put
        with pytest.raises(OSError, match="disk full"):
            runner.run()
        store.put = original
        assert list(runner.claims.claims()) == []
        # The two committed cells resume as cache hits.
        report = self._runner(store).run()
        assert (report.executed, report.cached) == (6, 2)


    def test_a_batch_is_put_whole_before_any_claim_is_released(
        self, tmp_path, monkeypatch
    ):
        """The commit protocol: every cell of a batch is durably stored
        before the first of its claims is handed back, so a crash leaves
        stored-but-claimed cells, never released-but-unstored ones."""
        from repro.results import ClaimStore

        store = ResultStore(tmp_path)
        log = []
        put, release = store.put, ClaimStore.release

        def logged_put(key, document):
            log.append(("put", key))
            return put(key, document)

        def logged_release(claims, key):
            log.append(("release", key))
            return release(claims, key)

        store.put = logged_put
        monkeypatch.setattr(ClaimStore, "release", logged_release)
        report = self._runner(store, workers=2).run()  # batches of 4
        assert report.executed == 8
        runs = []
        for event, key in log:
            if not runs or runs[-1][0] != event:
                runs.append((event, set()))
            runs[-1][1].add(key)
        assert [event for event, _ in runs] == ["put", "release"] * (len(runs) // 2)
        for (_, stored), (_, released) in zip(runs[::2], runs[1::2]):
            assert released == stored
        assert [len(keys) for event, keys in runs if event == "put"] == [4, 4]


class TestSingleProbe:
    """``_load_stored`` asks the store once: ``get``, whose ``KeyError``
    means "not stored".  There is no ``has`` before it for a document
    to vanish after, and whatever the document restore raises means
    "malformed", never "absent"."""

    GRID = TestClaimAwareRunner.GRID
    CELLS = 8

    def _stored(self, tmp_path):
        store = ResultStore(tmp_path)
        GridRunner(_spec(**self.GRID), store=store).run()
        spec = _spec(**self.GRID)
        return store, spec.cell_key(spec.expand()[3])

    def _rerun(self, store):
        lines = []
        runner = GridRunner(_spec(**self.GRID), store=store, poll_interval_s=0.01)
        report = runner.run(progress=lines.append)
        assert list(runner.claims.claims()) == []  # nothing leaked
        return report, lines

    @pytest.mark.parametrize("how", ["delete", "quarantine"])
    def test_a_cell_that_vanishes_before_the_read_is_executed_once(
        self, tmp_path, how, monkeypatch
    ):
        """Gone between ``keys = …`` and the read — an operator deleted
        it, or a concurrent reader quarantined it: absent, not an error."""
        store, victim = self._stored(tmp_path)
        victim_file = str(store.path_for(victim))
        read = store_module._read_text
        reads = []

        def vanishing(path):
            reads.append(path)
            if path == victim_file and reads.count(path) == 1:
                if how == "delete":
                    assert store.delete(victim)
                else:
                    assert store.quarantine(victim) is not None
            return read(path)

        monkeypatch.setattr(store_module, "_read_text", vanishing)
        report, lines = self._rerun(store)
        assert (report.executed, report.cached, report.quarantined) == (
            1, self.CELLS - 1, 0,
        )
        assert not any("quarantined" in line for line in lines)
        # Looked for twice (before and under the claim), executed once.
        assert reads.count(victim_file) == 2
        monkeypatch.undo()
        assert store.has(victim)  # recommitted
        again, _ = self._rerun(store)
        assert (again.executed, again.cached) == (0, self.CELLS)

    @pytest.mark.parametrize(
        "document",
        [{"kind": "grid-cell"}, {"kind": "grid-cell", "format_version": 1, "run": 3}, {}],
        ids=["missing-fields", "mangled-run", "empty"],
    )
    def test_a_wrong_shaped_document_is_quarantined_and_rerun(
        self, tmp_path, document
    ):
        store, victim = self._stored(tmp_path)
        store.put(victim, document)  # valid JSON, not a grid cell
        report, lines = self._rerun(store)
        assert (report.executed, report.cached, report.quarantined) == (
            1, self.CELLS - 1, 1,
        )
        assert sum(
            line.startswith("quarantined: corrupt")
            and "(malformed grid-cell document: " in line
            for line in lines
        ) == 1
        assert store.get(victim)["kind"] == "grid-cell" and "run" in store.get(victim)

    @pytest.mark.parametrize("text", ["{definitely not json", "[1, 2]\n", ""])
    def test_an_undecodable_document_takes_the_same_quarantine_path(
        self, tmp_path, text
    ):
        from repro.results import CorruptResultError

        store, victim = self._stored(tmp_path)
        store.path_for(victim).write_text(text, encoding="utf-8")
        with pytest.raises(CorruptResultError):
            ResultStore(tmp_path).get(victim)
        # The read above quarantined it.
        store.path_for(victim).write_text(text, encoding="utf-8")
        report, lines = self._rerun(store)
        assert (report.executed, report.cached, report.quarantined) == (
            1, self.CELLS - 1, 1,
        )
        assert sum(line.startswith("quarantined: corrupt") for line in lines) == 1
        assert store.has(victim)  # recommitted


def test_bytes_that_do_not_decode_are_quarantined_too(tmp_path):
    probe = TestSingleProbe()
    store, victim = probe._stored(tmp_path)
    store.path_for(victim).write_bytes(b"\xff\xfe\x00not utf-8")
    report, _ = probe._rerun(store)
    assert (report.executed, report.quarantined) == (1, 1)
    assert store.path_for(victim).with_name(f"{victim}.json.corrupt").is_file()


class TestClaimCheckOnGridEngine:
    """The referee reads a plain grid report — same verdicts as the
    claim table on direct runs, at any worker count."""

    @staticmethod
    def _verdicts(seeds, max_queries, workers=1):
        from repro.analysis import check_report

        spec = GridSpec(
            base_config=_base_config(seed=0), seeds=seeds, max_queries=max_queries
        )
        return check_report(GridRunner(spec, workers=workers).run())

    def test_matches_direct_comparison(self):
        from repro.analysis import ComparisonSlice, check_paper_claims
        from repro.experiments import DEFAULT_PROTOCOL_ORDER, run_protocol

        (verdicts,) = self._verdicts((11,), 40).values()
        direct = {
            name: run_protocol(
                _base_config(seed=11), name, max_queries=40, bucket_width=5
            )
            for name in DEFAULT_PROTOCOL_ORDER
        }
        checks = check_paper_claims(ComparisonSlice("baseline", 11, direct))
        assert [verdict.checks for verdict in verdicts] == [
            ((11, check),) for check in checks
        ]
        assert repr([v.spread for v in verdicts]) == repr([
            None if math.isnan(c.value) else (c.value, c.value, c.value)
            for c in checks
        ])

    def test_workers_do_not_change_the_verdicts(self):
        serial = self._verdicts((11, 12), 30)
        parallel = self._verdicts((11, 12), 30, workers=3)
        assert serial == parallel
        assert repr(
            [v.spread for v in serial["baseline"]]
        ) == repr([v.spread for v in parallel["baseline"]])


def _blueprint_probe(fingerprint):
    """Top-level so pool workers can unpickle it: whether this worker's
    cache already holds ``fingerprint``, and how many world builds this
    process has ever performed (fork workers inherit the parent's
    count, so any extra build shows up as a larger number)."""
    from repro.experiments.grid import _BLUEPRINT_CACHE
    from repro.overlay.blueprint import build_count

    return fingerprint in _BLUEPRINT_CACHE, build_count()


_fork_only = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork-shared blueprint substrate needs the fork start method",
)


class TestNonFiniteRejection:
    """NaN/Infinity must fail eagerly with the axis named: they would
    serialise as non-standard JSON tokens inside content-addressed key
    payloads and stored documents, and nan != nan silently defeats the
    duplicate-axis check."""

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_parse_scalar_rejects_non_finite(self, text):
        from repro.experiments.grid import parse_scalar

        with pytest.raises(ValueError, match="non-finite"):
            parse_scalar(text)

    def test_parse_scalar_keeps_ordinary_coercion(self):
        from repro.experiments.grid import parse_scalar

        assert parse_scalar("0.3") == 0.3
        assert parse_scalar("5") == 5
        assert parse_scalar("true") is True
        assert parse_scalar("router") == "router"
        # Only JSON's own constants are special; this stays a string.
        assert parse_scalar("nan") == "nan"

    def test_strings_that_merely_start_with_a_constant_stay_strings(self):
        """Regression guard on the fallback: 'NaN-sweep' is not valid
        JSON, so it must coerce to the plain string it always was."""
        from repro.experiments.grid import parse_scalar

        for text in ("NaN-sweep", "NaNo", "Infinity-pool", "-Infinity2"):
            assert parse_scalar(text) == text

    def test_non_finite_error_is_a_value_error(self):
        from repro.experiments.grid import NonFiniteValueError, parse_scalar

        with pytest.raises(NonFiniteValueError):
            parse_scalar("NaN")
        assert issubclass(NonFiniteValueError, ValueError)

    def test_config_override_axis_named(self):
        with pytest.raises(
            ValueError, match="non-finite.*'ttl'.*config-override axis"
        ):
            _spec(config_overrides=({"ttl": float("nan")},))

    def test_scenario_parameter_named_in_cli_form(self):
        with pytest.raises(ValueError, match="amplitude"):
            _spec(scenarios=("diurnal:amplitude=NaN",))

    def test_scenario_parameter_named_in_programmatic_form(self):
        with pytest.raises(
            ValueError, match="non-finite.*amplitude.*scenario axis"
        ):
            _spec(scenarios=(("diurnal", {"amplitude": float("inf")}),))

    @pytest.mark.parametrize("text", ["[1e999]", '{"a": [1e999]}'])
    def test_nested_non_finite_rejected_by_parse_scalar(self, text):
        """Overflow floats inside JSON composites must not slip past
        the eager check to die as an opaque allow_nan error in key
        hashing."""
        from repro.experiments.grid import parse_scalar

        with pytest.raises(ValueError, match="non-finite"):
            parse_scalar(text)

    def test_non_finite_base_config_field_named(self):
        """A non-finite value in the base config itself must fail at
        spec construction with the field named, not later as an opaque
        allow_nan error inside key hashing."""
        with pytest.raises(
            ValueError, match="non-finite.*query_rate_per_peer.*base-config"
        ):
            _spec(
                base_config=_base_config().replace(
                    query_rate_per_peer=float("inf")
                )
            )

    def test_nested_non_finite_named_on_the_axis(self):
        with pytest.raises(
            ValueError, match="non-finite.*amplitude.*scenario axis"
        ):
            _spec(scenarios=(("diurnal", {"amplitude": [float("inf")]}),))
        with pytest.raises(
            ValueError, match="non-finite.*'ttl'.*config-override axis"
        ):
            _spec(config_overrides=({"ttl": [float("nan")]},))


class TestGridWorkerPool:
    """The fork-shared substrate: blueprints built once in the parent
    are inherited copy-on-write by pool workers — no per-task pickling
    or per-worker rebuilds of the immutable world."""

    GRID = dict(
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal:amplitude=0.3"),
        seeds=(1, 2),
        max_queries=10,
    )

    def test_workers_validated(self):
        from repro.experiments import GridWorkerPool

        with pytest.raises(ValueError, match="workers"):
            GridWorkerPool(0)

    @_fork_only
    def test_fork_workers_inherit_prebuilt_blueprints(self):
        from repro.experiments import GridWorkerPool
        from repro.experiments.grid import _BLUEPRINT_CACHE
        from repro.overlay.blueprint import build_count

        spec = _spec(**self.GRID)
        _BLUEPRINT_CACHE.clear()
        try:
            configs = [spec.cell_build_config(cell) for cell in spec.expand()]
            fingerprints = sorted(
                {config.topology_fingerprint() for config in configs}
            )
            with GridWorkerPool(2, prebuild=configs) as pool:
                assert pool.shares_parent_memory
                assert pool.prebuilt == len(fingerprints)
                parent_builds = build_count()
                probes = pool.map(_blueprint_probe, fingerprints * 3)
            assert all(inherited for inherited, _ in probes)
            # Workers forked after the prewarm, so every build they
            # know of happened in the parent — none of their own.
            assert all(builds == parent_builds for _, builds in probes)
        finally:
            _BLUEPRINT_CACHE.clear()

    @_fork_only
    def test_store_run_with_workers_builds_once_per_fingerprint(self, tmp_path):
        from repro.experiments.grid import _BLUEPRINT_CACHE
        from repro.overlay.blueprint import build_count

        spec = _spec(**self.GRID)
        distinct = {
            spec.cell_build_config(cell).topology_fingerprint()
            for cell in spec.expand()
        }
        _BLUEPRINT_CACHE.clear()
        try:
            before = build_count()
            report = GridRunner(
                spec, workers=2, store=ResultStore(tmp_path)
            ).run()
            parent_builds = build_count() - before
        finally:
            _BLUEPRINT_CACHE.clear()
        assert report.executed == spec.num_cells
        # One build per distinct topology fingerprint, in the parent —
        # not one per task, and nothing rebuilt inside the workers.
        assert parent_builds == len(distinct)
        assert len(distinct) < spec.num_cells

    def test_parallel_store_run_byte_identical_to_serial(self, tmp_path):
        spec = _spec(**self.GRID)
        serial_store = ResultStore(tmp_path / "serial")
        GridRunner(spec, store=serial_store).run()
        parallel_store = ResultStore(tmp_path / "parallel")
        report = GridRunner(spec, workers=2, store=parallel_store).run()
        assert report.executed == spec.num_cells
        assert set(parallel_store.keys()) == set(serial_store.keys())
        for key in serial_store.keys():
            assert (
                parallel_store.path_for(key).read_bytes()
                == serial_store.path_for(key).read_bytes()
            ), f"cell {key[:12]} diverged between --workers 2 and serial"
        # A warm re-run over the parallel store executes nothing.
        warm = GridRunner(spec, workers=2, store=parallel_store).run()
        assert (warm.executed, warm.cached) == (0, spec.num_cells)

    def test_workers_recorded_in_this_runners_claims(self, tmp_path):
        runner = GridRunner(
            _spec(**self.GRID), workers=3, store=ResultStore(tmp_path)
        )
        assert runner.claims.workers == 3

    def test_pool_creation_failure_releases_the_claims(
        self, tmp_path, monkeypatch
    ):
        """Dying while forking the pool (which builds worlds in the
        parent) must not strand the just-claimed batch until its lease
        times out on other runners."""
        from repro.experiments import grid as grid_module

        store = ResultStore(tmp_path)
        runner = GridRunner(
            _spec(**self.GRID), workers=2, store=store, runner_id="doomed"
        )

        def exploding_pool(*args, **kwargs):
            raise RuntimeError("no memory for worlds")

        monkeypatch.setattr(grid_module, "GridWorkerPool", exploding_pool)
        with pytest.raises(RuntimeError, match="no memory"):
            runner.run()
        assert list(runner.claims.claims()) == []
        assert not list(runner.claims.directory.glob("*.claim"))
        # A surviving runner picks the cells up immediately.
        report = GridRunner(_spec(**self.GRID), store=store).run()
        assert report.executed == report.num_cells

    @_fork_only
    @pytest.mark.parametrize("extra_seeds", [-5, 2])
    def test_pool_prebuild_looks_past_the_first_claimed_batch(
        self, tmp_path, extra_seeds, eight_world_cache
    ):
        """In topology order the first claimed batch (2 × workers
        cells) covers a single world, so the one pool fork must
        prebuild from everything still pending — capped at the cache's
        peer budget, the rest building lazily in the workers."""
        from repro.overlay.blueprint import build_count

        spec = _spec(
            scenarios=("baseline", "flash-crowd"),
            seeds=tuple(range(1, 8 + extra_seeds + 1)),
            max_queries=5,
        )
        runner = GridRunner(spec, workers=2, store=ResultStore(tmp_path))
        def fingerprints(cells):
            return {
                spec.cell_build_config(cell).topology_fingerprint()
                for cell in cells
            }

        first_batch = spec.by_topology(spec.expand())[
            : runner._claim_batch_size()
        ]
        assert len(fingerprints(first_batch)) == 1
        distinct = len(fingerprints(spec.expand()))
        assert distinct == len(spec.seeds)
        before = build_count()
        report = runner.run()
        parent_builds = build_count() - before
        assert len(eight_world_cache) <= 8
        assert report.executed == spec.num_cells
        assert parent_builds == min(distinct, 8)

    @_fork_only
    def test_storeless_prewarm_is_capped_at_the_peer_budget(
        self, eight_world_cache, monkeypatch
    ):
        """A many-fingerprint storeless sweep runs on the one pool
        ``_ensure_pool`` forks, which must not serialise every build in
        the parent (workers would idle) nor have prewarm evict what it
        just built: the parent prebuilds at most one budget's worth
        and workers build the rest lazily.  The pool is closed when the
        run ends."""
        from repro.experiments import grid as grid_module
        from repro.overlay.blueprint import build_count

        pools = []

        class RecordedPool(grid_module.GridWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.closed = False
                pools.append(self)

            def close(self):
                super().close()
                self.closed = True

        monkeypatch.setattr(grid_module, "GridWorkerPool", RecordedPool)
        spec = _spec(
            protocols=("flooding",),
            scenarios=("baseline",),
            seeds=tuple(range(1, 8 + 4)),
            max_queries=5,
        )
        before = build_count()
        report = GridRunner(spec, workers=2).run()
        parent_builds = build_count() - before
        assert report.executed == spec.num_cells
        assert parent_builds == 8
        assert [(pool.prebuilt, pool.closed) for pool in pools] == [(8, True)]

    @pytest.mark.parametrize(
        "workers, seeds, stored",
        [(1, (1, 2), False), (4, (1,), False), (4, (1,), True)],
        ids=["serial", "one-cell", "one-cell-store"],
    )
    def test_a_run_with_one_worker_to_use_forks_no_pool(
        self, workers, seeds, stored, tmp_path, monkeypatch
    ):
        """``workers=1``, or one cell to run, runs in this process: a
        pool never has more workers than cells pending."""
        from repro.experiments import grid as grid_module

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker to use must run in this process")

        monkeypatch.setattr(grid_module, "GridWorkerPool", no_pool)
        spec = _spec(
            protocols=("flooding",), scenarios=("baseline",), seeds=seeds,
            max_queries=5,
        )
        store = ResultStore(tmp_path) if stored else None
        report = GridRunner(spec, workers=workers, store=store).run()
        assert report.executed == spec.num_cells

    def test_prewarm_keeps_cached_batch_members(self):
        """prewarm must refresh the LRU position of fingerprints the
        batch already has cached: building the batch's missing worlds
        may only evict worlds *outside* the batch, or the freshly
        forked workers would rebuild an evicted one per worker."""
        from repro.overlay.blueprint import BlueprintCache

        cache = BlueprintCache(max_peers=2 * 60, max_worlds=8)
        in_batch = small_config(seed=101)
        outside = small_config(seed=102)
        fresh = small_config(seed=103)
        cache.get(in_batch)
        cache.get(outside)  # in_batch is now LRU-oldest
        built = cache.prewarm([in_batch, fresh])
        assert built == 1  # only the missing world was built
        assert in_batch.topology_fingerprint() in cache  # refreshed
        assert fresh.topology_fingerprint() in cache
        assert outside.topology_fingerprint() not in cache  # evicted


class TestCappedPrebuild:
    """``_capped_prebuild`` fills the cache's budget and no more: what
    it returns, ``prewarm`` builds without evicting any of it."""

    @staticmethod
    def _prebuild(**grid):
        from repro.experiments.grid import _capped_prebuild

        spec = _spec(scenarios=("baseline", "flash-crowd"), **grid)
        cells = spec.by_topology(spec.expand())
        return spec, cells, _capped_prebuild(spec, cells)

    def test_an_over_budget_world_is_still_prebuilt_alone(
        self, swap_blueprint_cache
    ):
        swap_blueprint_cache(max_peers=59)
        spec, cells, prebuild = self._prebuild(seeds=(1, 2, 3))
        assert prebuild == [spec.cell_build_config(cells[0])]

    @pytest.mark.parametrize(
        ("max_peers", "worlds"), [(60, 1), (119, 1), (120, 2), (179, 2), (600, 5)]
    )
    def test_further_worlds_only_while_their_total_fits(
        self, swap_blueprint_cache, max_peers, worlds
    ):
        cache = swap_blueprint_cache(max_peers=max_peers)
        spec, _cells, prebuild = self._prebuild(seeds=(1, 2, 3, 4, 5))
        # Distinct worlds in dispatch order, one per seed.
        assert [config.seed for config in prebuild] == list(spec.seeds[:worlds])
        assert sum(config.num_peers for config in prebuild) <= max_peers
        assert cache.prewarm(prebuild) == worlds
        assert all(config.topology_fingerprint() in cache for config in prebuild)

    def test_the_world_count_binds_when_the_peers_do_not(
        self, swap_blueprint_cache
    ):
        swap_blueprint_cache(max_peers=8000, max_worlds=3)
        _spec, _cells, prebuild = self._prebuild(seeds=(1, 2, 3, 4, 5))
        assert [config.seed for config in prebuild] == [1, 2, 3]

    def test_worlds_of_different_sizes_are_counted_in_peers(
        self, swap_blueprint_cache
    ):
        """A grid whose override axis changes the population: 60 + 30
        fit a 100-peer budget, the next 20 do not."""
        swap_blueprint_cache(max_peers=100)
        _spec, _cells, prebuild = self._prebuild(
            seeds=(1,),
            config_overrides=(
                {},
                {"num_peers": 30, "num_files": 90},
                {"num_peers": 20, "num_files": 60},
            ),
        )
        assert [config.num_peers for config in prebuild] == [60, 30]


@pytest.fixture
def most_worlds_alive(monkeypatch):
    """A one-item list: the most blueprints ever alive at once while the
    test runs, counted with a weakref finalizer on every build."""
    import weakref

    from repro.overlay.blueprint import NetworkBlueprint

    alive = [0]
    most_alive = [0]
    real_build = NetworkBlueprint.build.__func__

    def counting_build(cls, config):
        blueprint = real_build(cls, config)
        alive[0] += 1
        most_alive[0] = max(most_alive[0], alive[0])
        weakref.finalize(blueprint, lambda: alive.__setitem__(0, alive[0] - 1))
        return blueprint

    monkeypatch.setattr(NetworkBlueprint, "build", classmethod(counting_build))
    return most_alive


@pytest.fixture
def default_budget_cache(swap_blueprint_cache):
    """An empty process cache with the production budget."""
    from repro.experiments import grid

    return swap_blueprint_cache(
        max_peers=grid._BLUEPRINT_CACHE_PEERS,
        max_worlds=grid._BLUEPRINT_CACHE_WORLDS,
    )


class TestOneWorldAliveOverBudget:
    """Over budget — a 6000-peer grid in production — the cache holds
    one world, and the one it evicts is freed before its replacement
    is built."""

    def test_serial_three_seed_grid_never_holds_two_worlds(
        self, tmp_path, most_worlds_alive, swap_blueprint_cache
    ):
        from repro.overlay.blueprint import build_count

        swap_blueprint_cache(max_peers=60)
        spec = _spec(seeds=(1, 2, 3), max_queries=5)
        before = build_count()
        report = GridRunner(spec, store=ResultStore(tmp_path)).run()
        assert report.executed == spec.num_cells
        assert build_count() - before == 3
        assert most_worlds_alive[0] == 1

    def test_consecutive_runs_build_each_world_once_per_run(
        self, eight_world_cache
    ):
        """A run releases its worlds when it is done with them, so a
        second ``GridRunner.run`` over the same seeds (run-time-only
        overrides changed) builds them again — once each."""
        from repro.overlay.blueprint import build_count

        before = build_count()
        for ttl in (5, 7):
            spec = _spec(
                seeds=(1, 2, 3), max_queries=5, config_overrides=({"ttl": ttl},)
            )
            report = GridRunner(spec).run()
            assert report.num_cells == spec.num_cells
            assert len(eight_world_cache) == 0
        assert build_count() - before == 6


class TestWorldLifetime:
    """Under budget too, a grid run holds a world only while a cell of
    its walk still needs it: the world is released when the last cell
    on its topology resolves, executed or loaded from the store."""

    SEEDS = (1, 2, 3)

    @pytest.mark.parametrize("stored", [False, True], ids=["storeless", "store"])
    def test_serial_grid_holds_one_world_and_ends_with_none(
        self, tmp_path, stored, default_budget_cache, most_worlds_alive
    ):
        from repro.overlay.blueprint import build_count

        spec = _spec(seeds=self.SEEDS, max_queries=5)
        store = ResultStore(tmp_path) if stored else None
        before = build_count()
        report = GridRunner(spec, store=store).run()
        assert report.executed == spec.num_cells
        assert build_count() - before == len(self.SEEDS)
        assert most_worlds_alive[0] == 1
        assert len(default_budget_cache) == 0

    def test_a_warm_store_run_releases_what_it_finds_cached(
        self, tmp_path, default_budget_cache
    ):
        """Loaded cells resolve too: worlds cached before a fully stored
        run are gone after it, and none was built."""
        from repro.overlay.blueprint import build_count

        spec = _spec(seeds=self.SEEDS, max_queries=5)
        store = ResultStore(tmp_path)
        GridRunner(spec, store=store).run()
        for cell in spec.expand():
            default_budget_cache.get(spec.cell_build_config(cell))
        assert len(default_budget_cache) == len(self.SEEDS)
        before = build_count()
        report = GridRunner(spec, store=store).run()
        assert (report.executed, report.cached) == (0, spec.num_cells)
        assert build_count() - before == 0
        assert len(default_budget_cache) == 0

    def test_a_foreign_claim_keeps_its_world_until_the_cell_resolves(
        self, tmp_path, default_budget_cache
    ):
        """While another runner holds one cell's claim, that cell's
        world stays cached and every other world is released; once the
        claim is given up, the cell runs on the kept world — one build
        per topology, none repeated."""
        from repro.overlay.blueprint import build_count
        from repro.results import ClaimStore

        spec = _spec(seeds=self.SEEDS, max_queries=5)
        store = ResultStore(tmp_path)
        cell = spec.expand()[0]
        key = spec.cell_key(cell)
        fingerprint = spec.cell_build_config(cell).topology_fingerprint()
        other = ClaimStore(store.root, runner_id="other", lease_ttl_s=60.0)
        assert other.try_claim(key)
        held_while_waiting = []

        def progress(line):
            if line.startswith("waiting:"):
                held_while_waiting.append(
                    (fingerprint in default_budget_cache, len(default_budget_cache))
                )
                other.release(key)

        before = build_count()
        report = GridRunner(spec, store=store, poll_interval_s=0.0).run(
            progress=progress
        )
        assert held_while_waiting == [(True, 1)]
        assert report.executed == spec.num_cells
        assert build_count() - before == len(self.SEEDS)
        assert len(default_budget_cache) == 0

    @_fork_only
    def test_a_parallel_store_run_leaves_the_parent_cache_empty(
        self, tmp_path, default_budget_cache
    ):
        from repro.overlay.blueprint import build_count

        spec = _spec(seeds=self.SEEDS, max_queries=5)
        before = build_count()
        report = GridRunner(spec, workers=2, store=ResultStore(tmp_path)).run()
        assert report.executed == spec.num_cells
        # The parent prewarmed every world for the fork, then let each
        # go as its last cell came back.
        assert build_count() - before == len(self.SEEDS)
        assert len(default_budget_cache) == 0


class _SteppingClock:
    """A manually advanced clock shared by a runner and its would-be thief."""

    def __init__(self, start=1000.0):
        self.value = start

    def now(self):
        return self.value

    def advance(self, seconds):
        self.value += seconds


class TestInFlightHeartbeat:
    """Regression: heartbeats used to fire only when a batch mate
    *completed*, so a single cell running longer than the lease TTL
    (including the first cell of any batch) went stale mid-execution
    and a thief re-executed it concurrently.  The background ticker
    must keep the in-flight claim live."""

    def test_cell_outliving_the_ttl_is_not_stolen(self, tmp_path, monkeypatch):
        import time as real_time

        from repro.experiments import grid as grid_module
        from repro.results import ClaimStore

        store = ResultStore(tmp_path)
        spec = _spec(
            protocols=("flooding",), scenarios=("baseline",), seeds=(1,)
        )
        clock = _SteppingClock()
        ttl = 60.0
        runner = GridRunner(
            spec,
            store=store,
            runner_id="slowpoke",
            lease_ttl_s=ttl,
            heartbeat_interval_s=0.01,
            poll_interval_s=0.01,
            clock=clock.now,
        )
        thief = ClaimStore(store.root, runner_id="thief", clock=clock.now)
        key = spec.cell_key(spec.expand()[0])
        attempts = []
        original = grid_module._run_cell

        def slow_run_cell(task):
            # The cell "runs" for 3x the TTL of injected time.  Wait
            # (real time, bounded) for the ticker to re-stamp the claim
            # at the advanced clock, then let the thief try its luck.
            clock.advance(3 * ttl)
            deadline = real_time.time() + 10.0
            while real_time.time() < deadline:
                claim = thief.get(key)
                if claim is not None and claim.heartbeat_at >= clock.now():
                    break
                real_time.sleep(0.005)
            attempts.append(thief.try_claim(key))
            return original(task)

        monkeypatch.setattr(grid_module, "_run_cell", slow_run_cell)
        report = runner.run()
        # The claim stayed live despite the cell outliving its TTL, so
        # the thief lost and the cell was executed exactly once, here.
        assert attempts == [False]
        assert (report.executed, report.cached) == (1, 0)
        assert list(runner.claims.claims()) == []

    def test_heartbeat_interval_defaults_to_a_quarter_ttl(self, tmp_path):
        runner = GridRunner(
            _spec(scenarios=("baseline",), seeds=(1,)),
            store=ResultStore(tmp_path),
            lease_ttl_s=100.0,
        )
        assert runner.heartbeat_interval_s == 25.0
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            GridRunner(
                _spec(scenarios=("baseline",), seeds=(1,)),
                store=ResultStore(tmp_path),
                heartbeat_interval_s=0.0,
            )

    def test_release_is_atomic_with_the_ticker(self, tmp_path):
        """A heartbeat landing after a release must not resurrect the
        claim file: _HeartbeatTicker.release drops and releases under
        the tick lock, so a completed grid leaves no claims behind even
        at an aggressive heartbeat interval."""
        store = ResultStore(tmp_path)
        runner = GridRunner(
            _spec(
                protocols=("flooding", "locaware"),
                scenarios=("baseline",),
                seeds=(1, 2),
            ),
            store=store,
            runner_id="ticking",
            heartbeat_interval_s=0.001,
            poll_interval_s=0.01,
        )
        report = runner.run()
        assert report.executed == 4
        assert list(runner.claims.claims()) == []
        assert not list(runner.claims.directory.glob("*"))


class TestTelemetrySidecars:
    def _small_spec(self):
        return _spec(
            protocols=("locaware",), scenarios=("baseline",), seeds=(1,)
        )

    def test_store_backed_run_writes_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._small_spec()
        GridRunner(spec, store=store).run()
        (key,) = list(store.keys())
        sidecar = store.get_sidecar(key)
        assert sidecar is not None
        assert sidecar["kind"] == "telemetry-sidecar"
        assert sidecar["key"] == key
        assert sidecar["telemetry"]["phases_s"]["simulate"] >= 0.0
        assert sidecar["telemetry"]["engine"]["events_processed"] > 0
        assert isinstance(sidecar["completed_unix"], float)

    def test_sidecar_stamps_runner_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = GridRunner(
            self._small_spec(), store=store, runner_id="r-1", workers=1
        )
        runner.run()
        (key,) = list(store.keys())
        sidecar = store.get_sidecar(key)
        assert sidecar["runner_id"] == "r-1"
        assert sidecar["workers"] == 1

    def test_cached_cells_do_not_rewrite_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._small_spec()
        GridRunner(spec, store=store).run()
        (key,) = list(store.keys())
        before = store.sidecar_path_for(key).stat().st_mtime_ns
        GridRunner(spec, store=store).run()
        assert store.sidecar_path_for(key).stat().st_mtime_ns == before
