"""Each scenario's arrival stream, draw for draw, against the oracle.

``tests/reference_workloads.py`` keeps the workload subclasses the four
workload-changing scenarios were built from before each scenario became
one class.  For ``flash-crowd``, ``regional-hotspot``, ``diurnal`` and
``popularity-shift`` — at their defaults and at explicit parameters, on
both latency models and several seeds — the scenario's workload must
issue the same arrivals as its reference: every arrival's
``(time, origin, file_id, keywords)``, recorded with
:class:`~repro.workload.TraceRecorder`, and the same number of
popularity shifts.
"""

import pytest

import reference_workloads as ref
from repro.experiments import small_config
from repro.overlay import P2PNetwork
from repro.scenarios import ScenarioContext, make_scenario
from repro.workload import TraceRecorder

MAX_QUERIES = 80

#: (scenario, explicit parameters): each scenario at its defaults and at
#: values that move every knob it has.
CASES = [
    ("flash-crowd", {}),
    ("flash-crowd", {"spike_time_s": 0, "spike_probability": 0.5}),
    ("flash-crowd", {"spike_time_s": 30.0, "spike_probability": 1}),
    ("regional-hotspot", {}),
    ("regional-hotspot", {"hotspot_probability": 1, "hot_set_size": 3}),
    ("diurnal", {}),
    ("diurnal", {"period_s": 30.0, "amplitude": 0.9}),
    ("diurnal", {"amplitude": 0}),
    ("popularity-shift", {}),
    ("popularity-shift", {"interval_s": 5.0}),
    ("popularity-shift", {"interval_s": 1}),
]


def _reference(name, params, network, issue):
    """The reference workload the scenario was built from."""
    if name == "flash-crowd":
        return ref.FlashCrowdWorkload(
            network, issue, max_queries=MAX_QUERIES, **params
        )
    if name == "regional-hotspot":
        return ref.RegionalHotspotWorkload(
            network, issue, max_queries=MAX_QUERIES, **params
        )
    if name == "diurnal":
        return ref.DiurnalWorkload(network, issue, max_queries=MAX_QUERIES, **params)
    # The popularity-shift scenario resolved its default interval itself.
    interval = params.get("interval_s")
    if interval is None:
        interval = 0.25 * ref.expected_horizon_s(network.config, MAX_QUERIES)
    return ref.ShiftingZipfWorkload(
        network, issue, shift_interval_s=interval, max_queries=MAX_QUERIES
    )


def _scenario(name, params, network, issue):
    """The scenario's workload, its install hook run as ``run_protocol`` does."""
    scenario = make_scenario(name, **params)
    workload = scenario.build_workload(network, issue, MAX_QUERIES)
    scenario.install(
        ScenarioContext(network=network, protocol=None, workload=workload)
    )
    return workload


def _stream(build, name, params, model, seed):
    """Every arrival of one run, and the popularity shifts it made."""
    config = small_config(seed=seed).replace(
        query_rate_per_peer=0.02, latency_model=model
    )
    network = P2PNetwork.build(config)
    recorder = TraceRecorder(network, lambda origin, file_id, keywords: None)
    workload = build(name, params, network, recorder)
    workload.start()
    # No protocol runs: the queue drains once the last arrival is issued
    # and the shift timer stops re-arming.
    network.sim.run()
    assert workload.generated == MAX_QUERIES
    arrivals = [(e.time, e.origin, e.file_id, e.keywords) for e in recorder.events]
    return arrivals, network.metrics.snapshot()


@pytest.mark.parametrize("seed", [1, 2, 20090322])
@pytest.mark.parametrize("model", ["euclidean", "router"])
@pytest.mark.parametrize(
    "name, params", CASES, ids=[f"{n}{sorted(p.items())}" for n, p in CASES]
)
def test_the_arrival_stream_matches_the_reference(name, params, model, seed):
    arrivals, counters = _stream(_scenario, name, params, model, seed)
    expected, expected_counters = _stream(_reference, name, params, model, seed)
    assert len(arrivals) == MAX_QUERIES
    assert arrivals == expected
    assert counters == expected_counters
    if name == "popularity-shift":
        assert counters["counter.workload.popularity_shifts"] >= 1
