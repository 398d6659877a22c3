"""The collector discipline of a cell (``repro.sim.gc_pause``).

Three layers:

1. **The invariant the pause rests on** — building, instantiating and
   simulating a world creates no unreachable reference cycles while the
   network is alive, so a collection inside a cell can only find
   nothing.  A failure here is a leak in the simulator, not a reason to
   weaken the test.
2. **Helper semantics** — :func:`gc_paused` restores whatever state it
   found: enabled → enabled, disabled → left alone, nested, raising.
3. **No collection inside a cell, none needed after it** — counted with
   ``gc.callbacks`` across a grid run, read back from telemetry for pool
   workers; and the network ``run_protocol`` built is freed by reference
   counting as the call returns, so no young collection has it to find.
"""

import gc
import weakref

import pytest

from repro.experiments import GridRunner, GridSpec, make_protocol, small_config
from repro.experiments import runner as runner_module
from repro.overlay import ChurnProcess, NetworkBlueprint, P2PNetwork
from repro.scenarios import ScenarioContext, make_scenario, scenario_names
from repro.sim import gc_paused

PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
#: The parameters of ``bench/workloads.py:CHURN_STORM``.
CHURN_STORM = dict(
    calm_session_s=300, calm_downtime_s=60, storm_session_s=20, storm_downtime_s=20
)
SCENARIOS = {
    "baseline": {},
    "flash-crowd": {},
    "churn-storm": CHURN_STORM,
}


def simulate_by_hand(protocol_name, scenario_name, max_queries=60):
    """``run_protocol``'s build → instantiate → simulate, keeping the network."""
    scenario = make_scenario(scenario_name, **SCENARIOS[scenario_name])
    config = scenario.configure(
        small_config(seed=5).replace(query_rate_per_peer=0.02)
    )
    network = NetworkBlueprint.build(config).instantiate()
    protocol = make_protocol(protocol_name, network)
    protocol.start()
    churn = None
    if config.churn_enabled:
        churn = ChurnProcess(
            network,
            config.mean_session_s,
            config.mean_downtime_s,
            network.streams.stream("churn"),
        )
        churn.start()
    workload = scenario.build_workload(network, protocol.issue_query, max_queries)
    scenario.install(
        ScenarioContext(
            network=network, protocol=protocol, workload=workload, churn=churn
        )
    )
    workload.start()
    runner_module.drive_until_settled(network, protocol, workload, max_queries)
    return network, protocol


class TestNoCyclesInsideACell:
    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    def test_simulate_phase_leaves_no_cyclic_garbage(
        self, protocol_name, scenario_name
    ):
        gc.collect()
        with gc_paused():
            network, protocol = simulate_by_hand(protocol_name, scenario_name)
            assert protocol.outcomes or protocol.local_satisfactions
            unreachable = gc.collect()
        assert isinstance(network, P2PNetwork)
        assert unreachable == 0


def tracking_instantiate(monkeypatch):
    """Weak references to every network ``NetworkBlueprint.instantiate``
    makes from here on."""
    networks = []
    real_instantiate = NetworkBlueprint.instantiate

    def instantiate(self, *args, **kwargs):
        network = real_instantiate(self, *args, **kwargs)
        networks.append(weakref.ref(network))
        return network

    monkeypatch.setattr(NetworkBlueprint, "instantiate", instantiate)
    return networks


class TestAFinishedCellIsFreedByReferenceCounting:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    def test_network_is_unreachable_when_run_protocol_returns(
        self, monkeypatch, protocol_name, scenario_name
    ):
        networks = tracking_instantiate(monkeypatch)
        config = small_config(seed=5).replace(query_rate_per_peer=0.02)
        gc.collect()
        gc.disable()
        try:
            run = runner_module.run_protocol(
                config, protocol_name, max_queries=40, bucket_width=20,
                scenario=scenario_name,
            )
            alive = [ref() is not None for ref in networks]
        finally:
            gc.enable()
        assert len(run.outcomes) + run.locally_satisfied == 40
        assert alive == [False]


class TestGcPaused:
    def test_enabled_is_restored(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_callers_disable_is_respected(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_only_the_outermost_region_re_enables(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside_re_enables(self):
        with pytest.raises(RuntimeError, match="boom"):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_decorator_pauses_every_call(self):
        @gc_paused()
        def probe():
            return gc.isenabled()

        assert probe() is False
        assert probe() is False
        assert gc.isenabled()


def _grid_spec():
    return GridSpec(
        base_config=small_config(seed=5).replace(query_rate_per_peer=0.02),
        protocols=("flooding", "locaware"),
        scenarios=("baseline",),
        seeds=(21, 22, 23),
        max_queries=40,
    )


class TestNoCollectionInsideACell:
    def test_build_runs_paused(self, monkeypatch):
        import repro.overlay.blueprint as blueprint_module

        seen = []
        real_streams = blueprint_module.RandomStreams

        def probing_streams(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_streams(*args, **kwargs)

        monkeypatch.setattr(blueprint_module, "RandomStreams", probing_streams)
        NetworkBlueprint.build(small_config(seed=5))
        assert gc.isenabled()
        assert seen == [False]

    def test_serial_grid_counts_zero_collections_in_run_protocol(
        self, monkeypatch
    ):
        # ``run_protocol`` constructs its PhaseTimers first and calls
        # collect_run_telemetry last: the two bracket the cell.
        inside = []
        paused_at_entry = []
        collections_inside = []
        collected_outside = []
        networks = tracking_instantiate(monkeypatch)

        def on_collection(phase, info):
            if phase == "start" and inside:
                collections_inside.append(info["generation"])
            if phase == "stop":
                collected_outside.append(info["collected"])

        class MarkingTimers(runner_module.PhaseTimers):
            def __init__(self):
                super().__init__()
                paused_at_entry.append(not gc.isenabled())
                inside.append(True)

        real_collect = runner_module.collect_run_telemetry

        def marking_collect(*args, **kwargs):
            try:
                return real_collect(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(runner_module, "PhaseTimers", MarkingTimers)
        monkeypatch.setattr(runner_module, "collect_run_telemetry", marking_collect)
        gc.collect()
        gc.callbacks.append(on_collection)
        try:
            report = GridRunner(_grid_spec(), workers=1).run()
            assert gc.isenabled()
            # Every cell's network is gone already, with no collection.
            assert [ref() for ref in networks] == [None] * 6
            gc.collect(0)
        finally:
            gc.callbacks.remove(on_collection)
        assert report.executed == 6 and len(networks) == 6
        assert paused_at_entry == [True] * 6 and inside == []
        assert collections_inside == []
        # Between and after the cells, no collection frees anything.
        assert collected_outside == [0] * len(collected_outside)
        for run in report.runs.values():
            assert run.telemetry.engine["gc_collections"] == [0, 0, 0]

    def test_pool_workers_report_zero_collections(self):
        report = GridRunner(_grid_spec(), workers=2).run()
        runs = list(report.runs.values())
        assert len(runs) == 6
        for run in runs:
            assert run.telemetry.engine["gc_collections"] == [0, 0, 0]
