"""Tests for the scenario registry, library, and scenario workloads.

Covers the issue's property checklist: query counts respect
``max_queries``, the flash-crowd spike targets a catalog file, the
diurnal rate stays positive, and a churn storm leaves the overlay
recoverable.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import run_protocol, small_config
from repro.overlay import P2PNetwork
from repro.scenarios import (
    SCENARIO_REGISTRY,
    ChurnStorm,
    DiurnalWorkload,
    FlashCrowdWorkload,
    RegionalHotspotWorkload,
    Scenario,
    expected_horizon_s,
    get_scenario,
    make_scenario,
    register_scenario,
    scenario_names,
    scenario_parameters,
)
from repro.workload import TraceRecorder


def _network(seed=7, **overrides):
    config = small_config(seed=seed).replace(
        query_rate_per_peer=0.02, **overrides
    )
    return P2PNetwork.build(config)


def _drain(network, workload, max_queries, slice_s=500.0, max_slices=10_000):
    workload.start()
    for _ in range(max_slices):
        if workload.generated >= max_queries:
            return
        if network.sim.peek_time() is None:
            return
        network.sim.run(until=network.sim.now + slice_s)
    raise AssertionError("workload did not finish generating")


def _sink(origin, file_id, keywords):
    """Workload callback that swallows queries (no protocol needed)."""


class TestRegistry:
    def test_issue_required_scenarios_registered(self):
        required = {
            "flash-crowd",
            "regional-hotspot",
            "churn-storm",
            "cold-start",
            "diurnal",
            "popularity-shift",
        }
        assert required <= set(SCENARIO_REGISTRY)
        assert "baseline" in SCENARIO_REGISTRY

    def test_names_sorted_and_descriptions_present(self):
        names = scenario_names()
        assert names == sorted(names)
        for name in names:
            assert SCENARIO_REGISTRY[name].description

    def test_get_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("meteor-strike")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scenario
            class Duplicate(Scenario):
                name = "baseline"

    def test_unnamed_registration_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):

            @register_scenario
            class Nameless(Scenario):
                pass


#: (scenario, parameter) of every registered scenario's constructor:
#: each one is a number, and the two counts take only an int.
PARAMETERS = [
    (name, param) for name in scenario_names() for param in scenario_parameters(name)
]
INT_PARAMETERS = {
    ("regional-hotspot", "hot_set_size"),
    ("cold-start", "files_per_peer"),
}


class TestParameterTypes:
    """A mistyped parameter fails at construction, naming itself — the
    point where a grid validates its scenario axis, before any cell."""

    @pytest.mark.parametrize("name, param", PARAMETERS)
    def test_a_non_number_is_rejected_by_name(self, name, param):
        bad = ["abc", True, [1]] + ([2.5] if (name, param) in INT_PARAMETERS else [])
        for value in bad:
            with pytest.raises(ValueError) as raised:
                make_scenario(name, **{param: value})
            assert str(raised.value).startswith(f"{param} must be ")

    @pytest.mark.parametrize("name, param", PARAMETERS)
    def test_a_valid_number_is_kept_as_given(self, name, param):
        default = getattr(get_scenario(name), param)
        value = 1 if default is None or type(default) is int else int(default)
        assert getattr(make_scenario(name, **{param: value}), param) is value


class TestScenarioRuns:
    """Every scenario runs end-to-end and respects the query horizon."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_REGISTRY))
    def test_scenario_run_completes_and_respects_max_queries(self, scenario):
        max_queries = 25
        config = small_config(seed=9).replace(query_rate_per_peer=0.02)
        run = run_protocol(
            config, "locaware", max_queries=max_queries, bucket_width=25,
            scenario=scenario,
        )
        assert len(run.outcomes) + run.locally_satisfied == max_queries
        assert all(o.index <= max_queries for o in run.outcomes)

    def test_popularity_shift_default_interval_shifts_mid_run(self):
        """interval_s=None places shifts inside the run at any scale."""
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(
            config, "locaware", max_queries=60, bucket_width=30,
            scenario="popularity-shift",
        )
        assert run.metric_snapshot["counter.workload.popularity_shifts"] >= 1

    def test_popularity_shift_rejects_non_positive_interval_up_front(self):
        from repro.experiments import GridSpec

        with pytest.raises(ValueError, match="scenario axis: interval_s must be"):
            GridSpec(
                base_config=small_config(),
                scenarios=("popularity-shift:interval_s=0",),
            )

    def test_cold_start_reduces_initial_replication(self):
        config = small_config()
        cold = get_scenario("cold-start").configure(config)
        assert cold.files_per_peer == 1
        assert cold.files_per_peer < config.files_per_peer

    def test_churn_storm_enables_churn(self):
        config = get_scenario("churn-storm").configure(small_config())
        assert config.churn_enabled


class TestFlashCrowdWorkload:
    def test_spike_targets_a_catalog_file(self):
        network = _network()
        recorder = TraceRecorder(network, _sink)
        workload = FlashCrowdWorkload(
            network, recorder, max_queries=60,
            spike_time_s=0.0, spike_probability=1.0,
        )
        assert 0 <= workload.hot_file < network.config.num_files
        # The hot file's keywords exist in the catalog.
        assert network.catalog.keywords(workload.hot_file)
        _drain(network, workload, 60)
        assert workload.generated == 60
        # With probability 1 from t=0, every query targets the hot file
        # and its keywords come from the hot filename.
        hot_keywords = set(network.catalog.keywords(workload.hot_file))
        for event in recorder.events:
            assert event.file_id == workload.hot_file
            assert set(event.keywords) <= hot_keywords
        assert workload.spike_queries == 60

    def test_no_spike_before_spike_time(self):
        network = _network()
        workload = FlashCrowdWorkload(
            network, _sink, max_queries=40,
            spike_time_s=1e9, spike_probability=1.0,
        )
        _drain(network, workload, 40)
        assert workload.spike_queries == 0

    @given(seed=st.integers(0, 50), probability=st.floats(0.1, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_spike_file_valid_for_any_seed(self, seed, probability):
        network = _network(seed=seed)
        recorder = TraceRecorder(network, _sink)
        workload = FlashCrowdWorkload(
            network, recorder, max_queries=10,
            spike_time_s=0.0, spike_probability=probability,
        )
        assert 0 <= workload.hot_file < network.config.num_files
        _drain(network, workload, 10)
        assert workload.generated == 10
        for event in recorder.events:
            assert 0 <= event.file_id < network.config.num_files

    def test_invalid_parameters_rejected(self):
        network = _network()
        with pytest.raises(ValueError):
            FlashCrowdWorkload(network, _sink, spike_time_s=-1.0)
        with pytest.raises(ValueError):
            FlashCrowdWorkload(network, _sink, spike_probability=0.0)
        with pytest.raises(ValueError):
            FlashCrowdWorkload(network, _sink, spike_probability=1.5)

    def test_default_spike_fires_within_the_run(self):
        """The registered scenario auto-places the spike a quarter into
        the expected horizon, so default runs actually see the crowd."""
        network = _network()
        workload = get_scenario("flash-crowd").build_workload(
            network, _sink, 40
        )
        horizon = expected_horizon_s(network.config, 40)
        assert workload.spike_time_s == pytest.approx(0.25 * horizon)
        _drain(network, workload, 40)
        assert workload.spike_queries > 0


class TestRegionalHotspotWorkload:
    def test_hot_region_queries_come_from_hot_set(self):
        network = _network()
        recorder = TraceRecorder(network, _sink)
        workload = RegionalHotspotWorkload(
            network, recorder, max_queries=80,
            hotspot_probability=1.0, hot_set_size=5,
        )
        hot_files = set(workload.hot_files)
        assert len(hot_files) == 5
        assert all(0 <= f < network.config.num_files for f in hot_files)
        _drain(network, workload, 80)
        hot_region_events = [
            e for e in recorder.events
            if network.peer(e.origin).locid == workload.hot_locid
        ]
        assert hot_region_events, "the hot locId should originate queries"
        for event in hot_region_events:
            assert event.file_id in hot_files

    def test_hot_locid_is_most_populous(self):
        network = _network()
        workload = RegionalHotspotWorkload(network, _sink, max_queries=1)
        histogram = network.underlay.locid_histogram()
        assert histogram[workload.hot_locid] == max(histogram.values())

    def test_hot_set_capped_by_catalog(self):
        network = _network()
        workload = RegionalHotspotWorkload(
            network, _sink, max_queries=1, hot_set_size=10**6
        )
        assert len(workload.hot_files) == network.config.num_files


class TestDiurnalWorkload:
    @given(
        amplitude=st.floats(0.0, 0.999),
        period=st.floats(1.0, 1e6),
        now=st.floats(0.0, 1e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_factor_always_positive(self, amplitude, period, now):
        network = _network()
        workload = DiurnalWorkload(
            network, _sink, max_queries=1, period_s=period, amplitude=amplitude
        )
        assert workload.rate_factor(now) > 0.0

    def test_system_rate_positive_while_peers_alive(self):
        network = _network()
        workload = DiurnalWorkload(
            network, _sink, max_queries=30, period_s=60.0, amplitude=0.9
        )
        _drain(network, workload, 30)
        assert workload.generated == 30
        assert workload._system_rate() > 0.0

    def test_modulation_shapes_arrivals(self):
        """Same seed: a strong diurnal swing changes arrival times."""
        base = _network(seed=3)
        flat = TraceRecorder(base, _sink)
        _drain(base, DiurnalWorkload(base, flat, max_queries=30, period_s=60.0,
                                     amplitude=0.0), 30)
        other = _network(seed=3)
        wavy = TraceRecorder(other, _sink)
        _drain(other, DiurnalWorkload(other, wavy, max_queries=30, period_s=60.0,
                                      amplitude=0.9), 30)
        assert [e.time for e in flat.events] != [e.time for e in wavy.events]

    def test_invalid_parameters_rejected(self):
        network = _network()
        with pytest.raises(ValueError):
            DiurnalWorkload(network, _sink, period_s=0.0)
        with pytest.raises(ValueError):
            DiurnalWorkload(network, _sink, amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalWorkload(network, _sink, amplitude=-0.1)


class TestChurnStorm:
    def test_overlay_recoverable_after_storm(self):
        """After the storm ends, the system keeps serving queries: peers
        are alive, the overlay graph holds them, and the query horizon
        was still reached."""
        scenario = ChurnStorm(
            calm_session_s=600.0,
            calm_downtime_s=30.0,
            storm_session_s=5.0,
            storm_downtime_s=10.0,
            storm_time_s=5.0,
            storm_duration_s=15.0,
        )
        config = small_config(seed=4).replace(query_rate_per_peer=0.02)
        run = run_protocol(
            config, "locaware", max_queries=60, bucket_width=30,
            scenario=scenario,
        )
        assert run.sim_time_s > scenario.storm_time_s + scenario.storm_duration_s
        assert len(run.outcomes) + run.locally_satisfied == 60
        # Rebuild the scenario's end state: rerun and inspect the network.
        # (run_protocol does not expose the network, so assert on the
        # aggregate evidence instead: churn happened, yet queries kept
        # completing after the storm window.)
        assert run.metric_snapshot.get("counter.messages.total", 0) > 0
        post_storm = [
            o for o in run.outcomes
            if o.issued_at > scenario.storm_time_s + scenario.storm_duration_s
        ]
        assert post_storm, "queries must still be issued after the storm"
        assert any(o.success for o in post_storm), (
            "the overlay should recover enough to satisfy queries post-storm"
        )

    def test_storm_collapses_and_restores_means(self):
        """The install hook drives ChurnProcess.set_means both ways."""
        from repro.overlay import ChurnProcess
        from repro.scenarios import ScenarioContext

        scenario = ChurnStorm(
            calm_session_s=600.0, calm_downtime_s=30.0,
            storm_session_s=5.0, storm_downtime_s=10.0,
            storm_time_s=20.0, storm_duration_s=60.0,
        )
        from repro.workload import QueryWorkload

        network = _network(seed=4, churn_enabled=True)
        churn = ChurnProcess(
            network, 600.0, 30.0, network.streams.stream("churn")
        )
        workload = QueryWorkload(network, _sink, max_queries=100)
        ctx = ScenarioContext(
            network=network, protocol=None, workload=workload, churn=churn
        )
        scenario.install(ctx)
        network.sim.run(until=scenario.storm_time_s + 1.0)
        assert churn.mean_session_s == scenario.storm_session_s
        assert churn.mean_downtime_s == scenario.storm_downtime_s
        network.sim.run(
            until=scenario.storm_time_s + scenario.storm_duration_s + 1.0
        )
        assert churn.mean_session_s == scenario.calm_session_s
        assert churn.mean_downtime_s == scenario.calm_downtime_s

    def test_invalid_storm_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChurnStorm(storm_time_s=-1.0)
        with pytest.raises(ValueError):
            ChurnStorm(storm_duration_s=0.0)

    @pytest.mark.parametrize(
        "param",
        ["calm_session_s", "calm_downtime_s", "storm_session_s", "storm_downtime_s"],
    )
    def test_every_mean_must_be_a_positive_number(self, param):
        for bad, message in [
            ("abc", f"{param} must be a number, got 'abc'"),
            (True, f"{param} must be a number, got True"),
            (0, f"{param} must be positive, got 0"),
            (-5.0, f"{param} must be positive, got -5.0"),
        ]:
            with pytest.raises(ValueError) as raised:
                ChurnStorm(**{param: bad})
            assert str(raised.value) == message
        assert getattr(ChurnStorm(**{param: 90}), param) == 90

    def test_default_storm_window_sits_inside_the_horizon(self):
        config = small_config()
        horizon = expected_horizon_s(config, 200)
        begin, end = ChurnStorm().storm_window(config, 200)
        assert begin == pytest.approx(0.25 * horizon)
        assert end == pytest.approx(0.75 * horizon)
        assert end < horizon
        # Explicit values pass through untouched.
        begin, end = ChurnStorm(
            storm_time_s=7.0, storm_duration_s=3.0
        ).storm_window(config, 200)
        assert (begin, end) == (7.0, 10.0)

    def test_default_diurnal_period_is_one_cycle_per_run(self):
        network = _network()
        workload = get_scenario("diurnal").build_workload(network, _sink, 50)
        assert workload.period_s == pytest.approx(
            expected_horizon_s(network.config, 50)
        )

    def test_set_means_validation(self):
        from repro.overlay import ChurnProcess

        network = _network()
        churn = ChurnProcess(network, 10.0, 10.0, network.streams.stream("churn"))
        with pytest.raises(ValueError):
            churn.set_means(0.0, 10.0)
        with pytest.raises(ValueError):
            churn.set_means(10.0, -1.0)


class TestMaxQueriesProperty:
    @given(
        max_queries=st.integers(1, 40),
        scenario=st.sampled_from(
            [
                "baseline", "flash-crowd", "regional-hotspot", "diurnal",
                "popularity-shift",
            ]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_generated_never_exceeds_max_queries(self, max_queries, scenario):
        network = _network(seed=11)
        recorder = TraceRecorder(network, _sink)
        workload = get_scenario(scenario).build_workload(
            network, recorder, max_queries
        )
        _drain(network, workload, max_queries)
        assert workload.generated == max_queries
        assert len(recorder.events) == max_queries
        assert math.isfinite(recorder.events[-1].time)


class TestTopologyDeclarations:
    """Every registered scenario's ``touches_topology`` declaration must
    match what its ``configure`` actually does to the fingerprint."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_declaration_matches_configure(self, name):
        scenario = get_scenario(name)
        base = small_config(seed=11)
        configured = scenario.configure(base)
        changed = (
            configured.topology_fingerprint() != base.topology_fingerprint()
        )
        if changed:
            assert scenario.touches_topology, (
                f"{name} changes the topology fingerprint but declares "
                "touches_topology=False"
            )

    def test_lying_scenario_is_caught_by_run_protocol(self):
        class LyingScenario(Scenario):
            name = "lying-scenario"
            description = "claims runtime-only but shrinks the population"
            touches_topology = False

            def configure(self, config):
                return config.replace(num_peers=config.num_peers - 1)

        with pytest.raises(RuntimeError, match="touches_topology"):
            run_protocol(
                small_config(seed=11),
                "flooding",
                max_queries=5,
                bucket_width=5,
                scenario=LyingScenario(),
            )

    def test_cold_start_declares_topology(self):
        assert get_scenario("cold-start").touches_topology
        assert not get_scenario("baseline").touches_topology
        assert not get_scenario("churn-storm").touches_topology
