"""Unit tests for the run-telemetry sidecar (phase timers, collection)."""

import gc
import json
import math

import pytest

from repro.experiments import run_protocol, small_config
from repro.sim import (
    PhaseTimers,
    RunTelemetry,
    collect_run_telemetry,
    gc_paused,
)
from repro.sim.telemetry import TELEMETRY_VERSION, sanitize_for_json


class FakeClock:
    """Deterministic perf_counter stand-in: advances by a scripted step."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestPhaseTimers:
    def test_measures_one_phase(self):
        timers = PhaseTimers(clock=FakeClock(step=1.0))
        with timers.phase("simulate"):
            pass
        assert timers.get("simulate") == pytest.approx(1.0)

    def test_reentry_accumulates(self):
        timers = PhaseTimers(clock=FakeClock(step=1.0))
        with timers.phase("simulate"):
            pass
        with timers.phase("simulate"):
            pass
        assert timers.get("simulate") == pytest.approx(2.0)

    def test_unentered_phase_reads_zero(self):
        assert PhaseTimers().get("never") == 0.0

    def test_total_sums_phases(self):
        timers = PhaseTimers(clock=FakeClock(step=1.0))
        with timers.phase("build"):
            pass
        with timers.phase("simulate"):
            pass
        assert timers.total_s() == pytest.approx(2.0)

    def test_records_even_when_body_raises(self):
        timers = PhaseTimers(clock=FakeClock(step=1.0))
        with pytest.raises(RuntimeError):
            with timers.phase("simulate"):
                raise RuntimeError("boom")
        assert timers.get("simulate") == pytest.approx(1.0)

    def test_gc_collections_counts_per_generation_since_construction(self):
        with gc_paused():  # no spontaneous collection in between
            timers = PhaseTimers()
            gc.collect(1)
            gc.collect(2)
            assert timers.gc_collections() == [0, 1, 1]


class TestSanitizeForJson:
    def test_nan_and_inf_become_none(self):
        value = {"a": math.nan, "b": [math.inf, 1.0], "c": {"d": -math.inf}}
        assert sanitize_for_json(value) == {
            "a": None,
            "b": [None, 1.0],
            "c": {"d": None},
        }

    def test_finite_values_pass_through(self):
        value = {"x": 1.5, "y": "s", "z": [1, 2], "w": True, "v": None}
        assert sanitize_for_json(value) == value


class TestRunTelemetryToDict:
    def test_shape_and_version(self):
        document = RunTelemetry(phases_s={"simulate": 1.0}).to_dict()
        assert document["version"] == TELEMETRY_VERSION
        assert set(document) == {
            "version",
            "phases_s",
            "engine",
            "protocol",
            "tracing",
        }

    def test_to_dict_is_strictly_serialisable(self):
        telemetry = RunTelemetry(
            engine={"events_per_s": math.nan},
            protocol={"index": {"hit_ratio": math.inf}},
        )
        encoded = json.dumps(telemetry.to_dict(), allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["engine"]["events_per_s"] is None
        assert decoded["protocol"]["index"]["hit_ratio"] is None


class TestCollectRunTelemetry:
    @pytest.fixture(scope="class")
    def run(self):
        return run_protocol(small_config(seed=3), "locaware", max_queries=30, bucket_width=5)

    def test_attached_to_protocol_run(self, run):
        assert run.telemetry is not None
        document = run.telemetry.to_dict()
        assert document["version"] == TELEMETRY_VERSION

    def test_phase_timers_cover_the_run(self, run):
        phases = run.telemetry.phases_s
        for name in ("build", "instantiate", "simulate", "finalize", "total"):
            assert name in phases
            assert phases[name] >= 0.0
        assert phases["total"] >= phases["simulate"]

    def test_engine_section(self, run):
        engine = run.telemetry.engine
        assert engine["events_processed"] > 0
        assert engine["queue_peak"] > 0
        assert engine["sim_time_s"] > 0.0
        assert engine["events_per_s"] > 0.0

    def test_no_collection_runs_inside_run_protocol(self, run):
        assert run.telemetry.engine["gc_collections"] == [0, 0, 0]
        json.dumps(run.telemetry.to_dict(), allow_nan=False)

    def test_index_section_consistent(self, run):
        index = run.telemetry.protocol["index"]
        assert index["lookups"] >= index["hits"] >= 0
        assert index["hit_ratio"] == pytest.approx(
            index["hits"] / index["lookups"]
        )

    def test_query_counts_match_outcomes(self, run):
        queries = run.telemetry.protocol["queries"]
        assert queries["issued"] == len(run.outcomes)
        succeeded = sum(1 for outcome in run.outcomes if outcome.success)
        assert queries["succeeded"] == succeeded

    def test_bloom_section_present_for_locaware(self, run):
        bloom = run.telemetry.protocol["bloom"]
        assert bloom["filters"] > 0
        assert bloom["membership_tests"] > 0
        assert 0.0 <= bloom["mean_fill_fraction"] <= 1.0
        assert 0.0 <= bloom["false_positive_estimate"] <= 1.0

    def test_bloom_averages_are_over_the_live_population(self, run):
        # State is made on first use; a live peer without any still counts,
        # as the empty filter it would export.
        assert run.telemetry.protocol["bloom"]["filters"] == run.config.num_peers
        stormy = run_protocol(
            small_config(seed=3).replace(query_rate_per_peer=0.02),
            "locaware",
            max_queries=60,
            bucket_width=20,
            scenario="churn-storm",
        )
        churn = stormy.telemetry.protocol["churn"]
        offline = churn["leaves"] - churn["rejoins"]
        assert offline > 0
        assert (
            stormy.telemetry.protocol["bloom"]["filters"]
            == stormy.config.num_peers - offline
        )

    def test_message_mix_sums_to_total(self, run):
        messages = dict(run.telemetry.protocol["messages"])
        total = messages.pop("total")
        assert total == sum(messages.values())
        assert total > 0

    def test_flooding_has_no_bloom_filters(self):
        run = run_protocol(small_config(seed=3), "flooding", max_queries=10, bucket_width=5)
        bloom = run.telemetry.protocol["bloom"]
        assert bloom["filters"] == 0
        assert "false_positive_estimate" not in bloom

    def test_opt_out(self):
        run = run_protocol(
            small_config(seed=3),
            "flooding",
            max_queries=5,
            bucket_width=5,
            collect_telemetry=False,
        )
        assert run.telemetry is None

    def test_collect_is_repeatable_from_fake_network(self):
        class FakeSim:
            events_processed = 10
            queue_peak = 4
            now = 2.5

        class FakeMetrics:
            @staticmethod
            def snapshot():
                return {"counter.index.hits": 1.0}

        class FakeNetwork:
            sim = FakeSim()
            metrics = FakeMetrics()
            peers = ()

        timers = PhaseTimers(clock=FakeClock(step=1.0))
        with timers.phase("simulate"):
            pass
        telemetry = collect_run_telemetry(FakeNetwork(), timers)
        assert telemetry.engine["events_processed"] == 10
        assert telemetry.engine["events_per_s"] == pytest.approx(10.0)
        assert len(telemetry.engine["gc_collections"]) == len(gc.get_stats())
        # No lookups recorded -> hit ratio is undefined, sanitised to None.
        assert telemetry.to_dict()["protocol"]["index"]["hit_ratio"] is None
