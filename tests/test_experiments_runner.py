"""Integration tests for the experiment runner and figure modules."""

import pytest

from repro.analysis import comparison_slice
from repro.experiments import (
    DEFAULT_PROTOCOL_ORDER,
    PROTOCOL_REGISTRY,
    GridRunner,
    GridSpec,
    drive_until_settled,
    fig2_download_distance,
    fig3_search_traffic,
    fig4_success_rate,
    make_protocol,
    paper_config,
    run_protocol,
    small_config,
)
from repro.overlay import P2PNetwork
from repro.workload import QueryWorkload, TraceRecorder


def one_seed_slice(seed, max_queries, bucket_width, **axes):
    """A storeless one-seed grid over ``axes``, as its one slice."""
    spec = GridSpec(
        base_config=small_config().replace(query_rate_per_peer=0.02),
        seeds=(seed,),
        max_queries=max_queries,
        bucket_width=bucket_width,
        **axes,
    )
    return comparison_slice(GridRunner(spec).run())


@pytest.fixture(scope="module")
def comparison():
    """One shared small comparison used by the figure-module tests."""
    return one_seed_slice(11, max_queries=120, bucket_width=40)


class TestConfigs:
    def test_paper_config_matches_section_51(self):
        config = paper_config()
        assert config.num_peers == 1000
        assert config.ttl == 7
        assert config.bloom_bits == 1200

    def test_small_config_is_small(self):
        assert small_config().num_peers < 200


class TestRegistry:
    def test_four_protocols_registered(self):
        """The paper's four plus the §6 extension; the default order
        stays the paper's four."""
        assert set(PROTOCOL_REGISTRY) == {
            "flooding",
            "dicas",
            "dicas-keys",
            "locaware",
            "locaware+locrouting",
        }
        assert DEFAULT_PROTOCOL_ORDER == ("flooding", "dicas", "dicas-keys", "locaware")

    def test_make_protocol_unknown_name(self):
        network = P2PNetwork.build(small_config())
        with pytest.raises(ValueError):
            make_protocol("gossip", network)

    def test_make_protocol_names_match(self):
        network = P2PNetwork.build(small_config())
        for name in PROTOCOL_REGISTRY:
            protocol = make_protocol(name, P2PNetwork.build(small_config()))
            assert protocol.name == name


class TestRunProtocol:
    def test_run_produces_outcomes(self):
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "flooding", max_queries=50, bucket_width=25)
        assert run.protocol_name == "flooding"
        assert run.outcomes
        assert run.summary.queries == len(run.outcomes)
        assert run.outcomes[-1].index <= 50

    def test_all_queries_accounted(self):
        """Network outcomes + locally satisfied = generated queries."""
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "dicas", max_queries=80, bucket_width=20)
        assert len(run.outcomes) + run.locally_satisfied == 80

    def test_locaware_run_terminates_despite_periodic_pushes(self):
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "locaware", max_queries=40, bucket_width=20)
        assert run.summary.queries == len(run.outcomes)

    def test_run_with_churn_terminates(self):
        config = small_config(seed=3).replace(
            query_rate_per_peer=0.02,
            churn_enabled=True,
            mean_session_s=120.0,
            mean_downtime_s=60.0,
        )
        run = run_protocol(config, "locaware", max_queries=40, bucket_width=20)
        assert run.outcomes

    def test_invalid_max_queries(self):
        with pytest.raises(ValueError):
            run_protocol(small_config(), "flooding", max_queries=0, bucket_width=10)

    def test_deterministic_runs(self):
        config = small_config(seed=5).replace(query_rate_per_peer=0.02)
        a = run_protocol(config, "dicas", max_queries=40, bucket_width=20)
        b = run_protocol(config, "dicas", max_queries=40, bucket_width=20)
        assert [o.success for o in a.outcomes] == [o.success for o in b.outcomes]
        assert a.summary.mean_messages == b.summary.mean_messages


class TestComparison:
    def test_all_protocols_ran(self, comparison):
        assert set(comparison.runs) == set(DEFAULT_PROTOCOL_ORDER)

    def test_common_bucket_edges(self, comparison):
        edges = comparison.bucket_edges()
        assert edges
        assert all(e % 40 == 0 for e in edges)

    def test_flooding_has_most_traffic(self, comparison):
        flood = comparison.runs["flooding"].summary.mean_messages
        for name in ("dicas", "dicas-keys", "locaware"):
            assert comparison.runs[name].summary.mean_messages < flood

    def test_summaries_and_series_accessors(self, comparison):
        assert set(comparison.summaries()) == set(comparison.runs)
        assert set(comparison.series()) == set(comparison.runs)


class TestFigureModules:
    def test_fig2_renders(self, comparison):
        text = fig2_download_distance.render(comparison)
        assert "download distance" in text
        assert "#queries" in text
        assert "locaware" in text

    def test_fig3_renders(self, comparison):
        text = fig3_search_traffic.render(comparison)
        assert "search traffic" in text

    def test_fig4_renders(self, comparison):
        text = fig4_success_rate.render(comparison)
        assert "success rate" in text

    def test_series_lengths_match_edges(self, comparison):
        edges = comparison.bucket_edges()
        for module in (fig2_download_distance, fig3_search_traffic, fig4_success_rate):
            series = module.figure_series(comparison)
            for name, values in series.items():
                assert len(values) <= len(edges)

    def test_fig4_values_are_rates(self, comparison):
        for values in fig4_success_rate.figure_series(comparison).values():
            for v in values:
                if v == v:  # skip NaN
                    assert 0.0 <= v <= 1.0


class TestComparisonBlueprintAndPassthrough:
    def test_comparison_builds_topology_exactly_once(self, swap_blueprint_cache):
        from repro.overlay.blueprint import build_count

        swap_blueprint_cache(max_peers=8 * 60)
        before = build_count()
        one_seed_slice(13, max_queries=10, bucket_width=5)
        assert build_count() - before == 1

    def test_comparison_scenario_passthrough(self):
        result = one_seed_slice(
            13,
            max_queries=15,
            bucket_width=5,
            protocols=("flooding", "locaware"),
            scenarios=("cold-start",),
        )
        assert result.row == "cold-start"
        assert list(result.runs) == ["flooding", "locaware"]
        for run in result.runs.values():
            assert run.config.files_per_peer == 1

    def test_comparison_scenario_equals_direct_runs(self):
        """The shared-blueprint comparison reproduces per-protocol
        scratch runs under the same scenario."""
        result = one_seed_slice(
            13,
            max_queries=15,
            bucket_width=5,
            protocols=("dicas",),
            scenarios=("churn-storm",),
        )
        direct = run_protocol(
            small_config(seed=13).replace(query_rate_per_peer=0.02),
            "dicas", max_queries=15, bucket_width=5, scenario="churn-storm",
        )
        assert result.runs["dicas"].outcomes == direct.outcomes
        assert result.runs["dicas"].metric_snapshot == direct.metric_snapshot

    def test_comparison_location_aware_routing_passthrough(self):
        """The §6 extension is a protocol name on the grid's axis."""
        result = one_seed_slice(
            13,
            max_queries=20,
            bucket_width=10,
            protocols=("locaware", "locaware+locrouting"),
        )
        plain, routed = result.runs.values()
        assert routed.protocol_name == "locaware+locrouting"
        assert routed.metric_snapshot != plain.metric_snapshot


class TestDriveDrainGuard:
    def test_drained_queue_with_unfinished_workload_raises(self):
        """A workload that stops rescheduling itself must fail loudly,
        naming generated vs expected queries."""
        network = P2PNetwork.build(small_config(seed=13))

        class StalledWorkload:
            generated = 3

        class IdleProtocol:
            pending_queries = 0

        with pytest.raises(RuntimeError, match="3 of 10"):
            drive_until_settled(network, IdleProtocol(), StalledWorkload(), 10)

    def test_drained_queue_after_full_generation_settles(self):
        """Draining *after* the workload finished generating stays a
        clean return even with queries still nominally pending."""
        network = P2PNetwork.build(small_config(seed=13))

        class DoneWorkload:
            generated = 10

        class StuckProtocol:
            pending_queries = 1

        drive_until_settled(network, StuckProtocol(), DoneWorkload(), 10)


def _science(run):
    """Everything a figure can read off a run (repr: NaNs must match)."""
    return repr((run.outcomes, run.summary, run.series, run.locally_satisfied))


class TestStopAtSettle:
    """A run ends at the event that settles its last query — and nothing
    after that event could have entered a result."""

    @pytest.mark.parametrize("scenario", ["baseline", "churn-storm", "flash-crowd"])
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_REGISTRY))
    def test_ends_at_the_settling_event_and_the_tail_changes_nothing(
        self, protocol_name, scenario, monkeypatch
    ):
        from repro.experiments import runner

        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        seen = {}

        def drive_then_overrun(network, protocol, workload, max_queries):
            recorder = workload._issue = TraceRecorder(network, workload._issue)
            drive_until_settled(network, protocol, workload, max_queries)
            seen["settled_at"] = network.sim.now
            seen["last_arrival"] = recorder.events[-1].time
            network.sim.run(until=network.sim.now + 500.0)

        def cell():
            return run_protocol(
                config, protocol_name, max_queries=60, bucket_width=20,
                scenario=scenario,
            )

        run = cell()
        monkeypatch.setattr(runner, "drive_until_settled", drive_then_overrun)
        overrun = cell()

        # Last issue + timeout — unless the last arrival came later
        # still and was satisfied locally, leaving nothing pending.
        last_issue = max(o.issued_at for o in run.outcomes)
        assert run.sim_time_s == max(
            last_issue + run.config.query_timeout_s, seen["last_arrival"]
        )
        assert run.sim_time_s == seen["settled_at"]
        assert run.sim_time_s % 500.0 != 0.0
        assert len(run.outcomes) + run.locally_satisfied == 60
        # The argument itself: 500 more seconds of the same live network
        # (Bloom pushes, churn, downloads in flight) move no per-query
        # quantity, only the run-level bookkeeping.
        assert overrun.sim_time_s == run.sim_time_s + 500.0
        assert overrun.events_processed >= run.events_processed
        assert _science(overrun) == _science(run)

    def test_single_query_settles_at_its_own_timeout(self):
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "locaware", max_queries=1, bucket_width=1)
        (outcome,) = run.outcomes
        assert run.sim_time_s == outcome.issued_at + config.query_timeout_s
        assert run.sim_time_s < 500.0

    def test_locally_satisfied_last_arrival_settles_on_the_spot(self):
        """Nothing is pending after an arrival the origin answers from
        its own files: the arrival itself is the settling event."""
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        network = P2PNetwork.build(config)
        protocol = make_protocol("locaware", network)
        protocol.start()

        def ask_for_an_own_file(origin, _file_id, _keywords):
            own = min(network.peer(origin).store.file_ids())
            keywords = network.catalog.keywords(own)
            return protocol.issue_query(origin, own, keywords)

        recorder = TraceRecorder(network, ask_for_an_own_file)
        workload = QueryWorkload(network, recorder, max_queries=1)
        workload.start()
        drive_until_settled(network, protocol, workload, 1)
        assert protocol.local_satisfactions == 1
        assert protocol.outcomes == []
        assert network.sim.now == recorder.events[-1].time
        assert 0.0 < network.sim.now < 500.0

    def test_hooks_are_released_on_return(self):
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        network = P2PNetwork.build(config)
        protocol = make_protocol("flooding", network)
        workload = QueryWorkload(network, protocol.issue_query, max_queries=3)
        workload.start()
        drive_until_settled(network, protocol, workload, 3)
        assert protocol.on_idle is None
        assert workload.on_arrival is None

    def test_unaccounted_query_fails_the_settle_invariant(self):
        """Every generated query is a finalised outcome or a local
        satisfaction; a run that settles short of that is refused."""
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        network = P2PNetwork.build(config)
        protocol = make_protocol("flooding", network)
        issued = []

        def lose_the_second(origin, file_id, keywords):
            issued.append(file_id)
            if len(issued) != 2:
                protocol.issue_query(origin, file_id, keywords)

        workload = QueryWorkload(network, lose_the_second, max_queries=5)
        workload.start()
        with pytest.raises(RuntimeError) as error:
            drive_until_settled(network, protocol, workload, 5)
        finalised, local = len(protocol.outcomes), protocol.local_satisfactions
        assert finalised + local == 4
        assert f"{finalised} finalised" in str(error.value)
        assert f"{local} locally satisfied" in str(error.value)
        assert "generated 5" in str(error.value)
