"""Determinism/regression harness.

Four guarantees are locked in here:

1. **Replay determinism** — for every protocol in ``PROTOCOL_REGISTRY``
   (and every registered scenario), two ``run_protocol`` calls with the
   same seed produce identical outcomes, summaries, and metric
   snapshots.
2. **Parallel equivalence** — a multiprocessing ``GridRunner``
   reproduces the serial (``workers=1``) results cell for cell,
   byte-identically once serialised.
3. **Blueprint equivalence** — a run instantiated from a cached
   ``NetworkBlueprint`` is byte-identical to a from-scratch build, for
   every protocol × scenario × seed cell, and a parallel grid (whose
   cells always reuse blueprints) equals direct from-scratch
   ``run_protocol`` calls cell for cell.
4. **Grid determinism** — *parameterised* scenario cells (scenario
   factories with keyword overrides, config-override axes) replay
   identically for the same spec + seed, parallel equals serial, and
   the parameters demonstrably reach the runs (different parameters ⇒
   different results).
"""

import json
import math

import pytest

from repro.experiments import (
    GridRunner,
    GridSpec,
    PROTOCOL_REGISTRY,
    run_protocol,
    small_config,
)
from repro.overlay import NetworkBlueprint
from repro.scenarios import get_scenario, make_scenario, scenario_names


def _config(seed=5):
    return small_config(seed=seed).replace(query_rate_per_peer=0.02)


def scratch_run(spec, cell):
    """``cell`` as a direct run_protocol call: own build, no blueprint."""
    return run_protocol(
        spec.cell_config(cell),
        cell.protocol,
        max_queries=spec.max_queries,
        bucket_width=spec.bucket_width,
        scenario=cell.scenario.make(),
    )


def run_fingerprint(run):
    """A byte-exact JSON fingerprint of everything a run measured.

    NaN-bearing floats are serialised via ``repr`` so that two NaNs
    fingerprint identically (``nan != nan`` under ``==``).
    """
    return json.dumps(
        {
            "protocol": run.protocol_name,
            "scenario": run.scenario_name,
            "outcomes": [
                [
                    o.query_id,
                    o.index,
                    o.origin,
                    o.target_file,
                    list(o.keywords),
                    repr(o.issued_at),
                    o.success,
                    repr(o.download_distance_ms),
                    o.messages,
                    o.responses,
                    o.provider,
                    o.downloaded_file,
                ]
                for o in run.outcomes
            ],
            "summary": [
                run.summary.queries,
                run.summary.successes,
                repr(run.summary.success_rate),
                repr(run.summary.mean_messages),
                repr(run.summary.mean_download_distance_ms),
                repr(run.summary.mean_responses),
            ],
            "series_edges": run.series.bucket_edges(),
            "series_means": [
                repr(v) for v in run.series.search_traffic.windowed_means()
            ],
            "locally_satisfied": run.locally_satisfied,
            "sim_time_s": repr(run.sim_time_s),
            "events_processed": run.events_processed,
            "metrics": {k: repr(v) for k, v in sorted(run.metric_snapshot.items())},
        },
        sort_keys=True,
    )


class TestRunProtocolDeterminism:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_same_seed_same_results(self, protocol):
        a = run_protocol(_config(), protocol, max_queries=40, bucket_width=20)
        b = run_protocol(_config(), protocol, max_queries=40, bucket_width=20)
        assert run_fingerprint(a) == run_fingerprint(b)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_summary_and_snapshot_equal(self, protocol):
        """The summary dataclass and snapshot dict compare equal directly
        (not just via fingerprint) whenever no field is NaN."""
        a = run_protocol(_config(), protocol, max_queries=40, bucket_width=20)
        b = run_protocol(_config(), protocol, max_queries=40, bucket_width=20)
        assert a.metric_snapshot == b.metric_snapshot
        if not math.isnan(a.summary.mean_download_distance_ms):
            assert a.summary == b.summary

    def test_different_seeds_differ(self):
        """Sanity: the fingerprint is sensitive enough to see a seed change."""
        a = run_protocol(_config(seed=5), "dicas", max_queries=40, bucket_width=20)
        b = run_protocol(_config(seed=6), "dicas", max_queries=40, bucket_width=20)
        assert run_fingerprint(a) != run_fingerprint(b)

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_scenario_is_deterministic(self, scenario):
        a = run_protocol(
            _config(), "locaware", max_queries=25, bucket_width=25,
            scenario=scenario,
        )
        b = run_protocol(
            _config(), "locaware", max_queries=25, bucket_width=25,
            scenario=scenario,
        )
        assert a.scenario_name == scenario
        assert run_fingerprint(a) == run_fingerprint(b)


class TestSweepParallelEquivalence:
    GRID = dict(
        protocols=("flooding", "dicas", "dicas-keys", "locaware"),
        scenarios=("baseline", "flash-crowd", "churn-storm"),
        seeds=(3, 4),
        max_queries=25,
    )

    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        spec = GridSpec(base_config=_config(), **self.GRID)
        serial = GridRunner(spec, workers=1).run()
        parallel = GridRunner(spec, workers=3).run()
        return serial, parallel

    def test_same_cells(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert set(serial.runs) == set(parallel.runs)
        assert serial.num_cells == 4 * 3 * 2

    def test_cell_for_cell_byte_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for cell, serial_run in serial.runs.items():
            parallel_run = parallel.runs[cell]
            assert run_fingerprint(serial_run) == run_fingerprint(parallel_run), (
                f"parallel run diverged from serial at {cell}"
            )

    def test_sweep_reproduces_direct_run_protocol(self, serial_and_parallel):
        """A sweep cell equals a hand-rolled run_protocol call."""
        serial, _ = serial_and_parallel
        cell_run = serial.run_for("locaware", "flash-crowd", 3)
        direct = run_protocol(
            _config().replace(seed=3),
            "locaware",
            max_queries=self.GRID["max_queries"],
            bucket_width=serial.bucket_width,
            scenario="flash-crowd",
        )
        assert run_fingerprint(cell_run) == run_fingerprint(direct)


class TestGridDeterminism:
    """Parameterised scenarios keep every determinism guarantee: same
    spec + seed ⇒ cell-for-cell identical results, parallel == serial,
    and blueprint reuse changes nothing."""

    GRID = dict(
        protocols=("flooding", "locaware"),
        scenarios=(
            "baseline",
            "flash-crowd:spike_probability=0.95",
            "churn-storm:storm_session_s=120",
        ),
        config_overrides=({}, {"ttl": 5}),
        seeds=(3, 4),
        max_queries=20,
    )

    def _spec(self, **overrides):
        kwargs = dict(self.GRID, base_config=_config())
        kwargs.update(overrides)
        return GridSpec(**kwargs)

    @pytest.fixture(scope="class")
    def serial(self):
        return GridRunner(self._spec()).run()

    def test_same_spec_same_results(self, serial):
        again = GridRunner(self._spec()).run()
        assert set(serial.runs) == set(again.runs)
        for cell, run in serial.runs.items():
            assert run_fingerprint(run) == run_fingerprint(again.runs[cell]), cell

    def test_parallel_equals_serial(self, serial):
        parallel = GridRunner(self._spec(), workers=3).run()
        assert set(serial.runs) == set(parallel.runs)
        for cell, run in serial.runs.items():
            assert run_fingerprint(run) == run_fingerprint(
                parallel.runs[cell]
            ), f"parallel grid run diverged from serial at {cell}"

    def test_reuse_builds_equals_scratch(self, serial):
        spec = self._spec()
        for cell, run in serial.runs.items():
            assert run_fingerprint(run) == run_fingerprint(
                scratch_run(spec, cell)
            ), cell

    def test_parameterised_cell_equals_direct_run_protocol(self, serial):
        """A parameterised grid cell equals a hand-rolled run_protocol
        call on the same scenario variant."""
        label = "flash-crowd[spike_probability=0.95]"
        cell_run = serial.run_for("locaware", label, 3)
        direct = run_protocol(
            _config(seed=3),
            "locaware",
            max_queries=self.GRID["max_queries"],
            bucket_width=self._spec().bucket_width,
            scenario=make_scenario("flash-crowd", spike_probability=0.95),
        )
        assert run_fingerprint(cell_run) == run_fingerprint(direct)

    def test_scenario_parameters_reach_the_simulation(self):
        """Different parameter values must change the results, or the
        parameter axis would silently collapse."""
        mild = GridRunner(
            self._spec(
                scenarios=("flash-crowd:spike_probability=0.05",),
                config_overrides=({},),
                protocols=("locaware",),
                seeds=(3,),
                max_queries=40,
            )
        ).run()
        wild = GridRunner(
            self._spec(
                scenarios=("flash-crowd:spike_probability=0.95",),
                config_overrides=({},),
                protocols=("locaware",),
                seeds=(3,),
                max_queries=40,
            )
        ).run()
        mild_run = next(iter(mild.runs.values()))
        wild_run = next(iter(wild.runs.values()))
        assert run_fingerprint(mild_run) != run_fingerprint(wild_run)

    def test_config_override_axis_reaches_the_simulation(self, serial):
        """ttl=5 rows must differ from the base-config rows."""
        base = serial.run_for("flooding", "baseline", 3)
        tweaked = serial.run_for("flooding", "baseline @ ttl=5", 3)
        assert tweaked.config.ttl == 5
        assert run_fingerprint(base) != run_fingerprint(tweaked)


class TestBlueprintEquivalence:
    """Instantiating a cached blueprint must be indistinguishable from
    building the world from scratch — the non-negotiable invariant of
    the blueprint/instance split."""

    # churn-storm exercises runtime-only config overrides on a shared
    # build; cold-start exercises a topology-touching scenario (its own
    # blueprint, still shared across protocols).
    SCENARIOS = ("baseline", "churn-storm", "cold-start")
    SEEDS = (3, 4)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_blueprint_run_equals_scratch_run(self, protocol, scenario, seed):
        config = _config(seed=seed)
        effective = get_scenario(scenario).configure(config)
        blueprint = NetworkBlueprint.build(effective)
        scratch = run_protocol(
            config, protocol, max_queries=25, bucket_width=25, scenario=scenario
        )
        instantiated = run_protocol(
            config,
            protocol,
            max_queries=25,
            bucket_width=25,
            scenario=scenario,
            blueprint=blueprint,
        )
        assert run_fingerprint(scratch) == run_fingerprint(instantiated)

    def test_reinstantiated_blueprint_replays_identically(self):
        """One blueprint, two instantiations — no state bleeds across runs."""
        config = _config()
        blueprint = NetworkBlueprint.build(config)
        a = run_protocol(
            config, "locaware", max_queries=25, bucket_width=25, blueprint=blueprint
        )
        b = run_protocol(
            config, "locaware", max_queries=25, bucket_width=25, blueprint=blueprint
        )
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_mismatched_blueprint_rejected(self):
        blueprint = NetworkBlueprint.build(_config(seed=3))
        with pytest.raises(ValueError, match="topology-incompatible"):
            run_protocol(
                _config(seed=4),
                "flooding",
                max_queries=5,
                bucket_width=5,
                blueprint=blueprint,
            )

    def test_reuse_builds_parallel_equals_serial_scratch(self):
        """A `--workers N` grid equals direct from-scratch runs."""
        spec = GridSpec(
            base_config=_config(),
            protocols=("flooding", "dicas", "dicas-keys", "locaware"),
            scenarios=("baseline", "cold-start"),
            seeds=(3, 4),
            max_queries=25,
        )
        reuse_parallel = GridRunner(spec, workers=3).run()
        assert set(reuse_parallel.runs) == set(spec.expand())
        for cell, run in reuse_parallel.runs.items():
            assert run_fingerprint(run) == run_fingerprint(
                scratch_run(spec, cell)
            ), f"parallel grid run diverged from scratch at {cell}"


class TestTelemetryNeutrality:
    """The observability layer must be provably inert.

    Tracing and telemetry are operational sidecars: turning them on (or
    off) must never change outcomes, metric snapshots, stored documents,
    or content-addressed keys — the fifth guarantee locked in here.
    """

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
    def test_traced_run_fingerprints_like_untraced(self, protocol, tmp_path):
        untraced = run_protocol(
            _config(), protocol, max_queries=40, bucket_width=20,
            collect_telemetry=False,
        )
        traced = run_protocol(
            _config(), protocol, max_queries=40, bucket_width=20,
            trace_path=tmp_path / "trace.jsonl",
        )
        assert run_fingerprint(untraced) == run_fingerprint(traced)
        # The traced run really did trace (the comparison is not vacuous).
        assert traced.telemetry is not None
        assert traced.telemetry.tracing["events_written"] > 0

    def test_storm_scenario_emits_are_inert(self, tmp_path):
        """The guarded scenario.storm_* emit sites change no bytes.

        The churn-storm callbacks emit trace events mid-run; with the
        guard in place a traced run must still fingerprint identically
        to an untraced one, and the trace must actually contain the
        storm events so the comparison exercises the guarded sites.
        """
        untraced = run_protocol(
            _config(), "locaware", max_queries=40, bucket_width=20,
            scenario="churn-storm", collect_telemetry=False,
        )
        trace = tmp_path / "storm.jsonl"
        traced = run_protocol(
            _config(), "locaware", max_queries=40, bucket_width=20,
            scenario="churn-storm", trace_path=trace,
        )
        assert run_fingerprint(untraced) == run_fingerprint(traced)
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text(encoding="utf-8").splitlines()
        }
        assert "scenario.storm_begins" in kinds

    def test_workload_shift_emits_are_inert(self, tmp_path):
        """The guarded workload.shift emit site changes no bytes."""
        untraced = run_protocol(
            _config(), "locaware", max_queries=40, bucket_width=20,
            scenario="popularity-shift", collect_telemetry=False,
        )
        trace = tmp_path / "shift.jsonl"
        traced = run_protocol(
            _config(), "locaware", max_queries=40, bucket_width=20,
            scenario="popularity-shift", trace_path=trace,
        )
        assert run_fingerprint(untraced) == run_fingerprint(traced)
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text(encoding="utf-8").splitlines()
        }
        assert "workload.shift" in kinds

    def test_telemetry_never_enters_stored_documents(self):
        from repro.analysis.persistence import run_to_document

        run = run_protocol(_config(), "locaware", max_queries=20, bucket_width=10)
        assert run.telemetry is not None
        document = run_to_document(run)
        assert "telemetry" not in json.dumps(document)

    def test_warm_grid_rerun_executes_zero_cells(self, tmp_path):
        from repro.results import ResultStore

        spec = GridSpec(
            base_config=_config(),
            protocols=["locaware", "flooding"],
            scenarios=["baseline"],
            seeds=[1],
            max_queries=20,
            bucket_width=10,
        )
        store = ResultStore(tmp_path / "store")
        cold = GridRunner(spec, store=store).run()
        assert cold.executed == 2
        # Sidecars were written next to the documents...
        assert len(list(store.sidecar_keys())) == 2
        # ...but the store's key space and resume semantics ignore them:
        warm = GridRunner(spec, store=store).run()
        assert warm.executed == 0
        assert warm.cached == 2

    def test_sidecar_does_not_change_document_bytes(self, tmp_path):
        from repro.results import ResultStore

        spec = GridSpec(
            base_config=_config(),
            protocols=["locaware"],
            scenarios=["baseline"],
            seeds=[1],
            max_queries=20,
            bucket_width=10,
        )
        with_sidecar = ResultStore(tmp_path / "a")
        GridRunner(spec, store=with_sidecar).run()
        (key,) = list(with_sidecar.keys())

        bare = ResultStore(tmp_path / "b")
        GridRunner(spec, store=bare).run()
        assert list(bare.keys()) == [key]
        assert (
            with_sidecar.path_for(key).read_bytes()
            == bare.path_for(key).read_bytes()
        )
