"""The scenario part of a grid cell's key must not move.

A stored cell is found by its key, and the key payload carries the
cell's scenario as ``{"name": ..., "params": ...}``: the explicit
overrides merged over every constructor parameter read back from the
instance, unresolved (``None`` stays ``None``; the horizon-relative
defaults resolve only when the run is built).  A change to a scenario's
attribute names, defaults or stored values would orphan every stored
grid that ran it, so each registered scenario's payload is pinned here
as a literal, at its defaults and at one explicit variant.  Compared as
canonical JSON, so an int kept as given (``120``) stays distinct from
the float (``120.0``) it would equal in Python.
"""

import pytest

from repro.experiments import GridSpec, small_config
from repro.results.keys import canonical_json
from repro.scenarios import scenario_names

#: grid scenario-axis entry → the ``scenario`` of its cells' key payload.
PINNED = {
    "baseline": {"name": "baseline", "params": {}},
    "churn-storm": {
        "name": "churn-storm",
        "params": {
            "calm_downtime_s": 300.0, "calm_session_s": 3600.0,
            "storm_downtime_s": 120.0, "storm_duration_s": None,
            "storm_session_s": 60.0, "storm_time_s": None,
        },
    },
    "churn-storm:storm_session_s=120,storm_time_s=30": {
        "name": "churn-storm",
        "params": {
            "calm_downtime_s": 300.0, "calm_session_s": 3600.0,
            "storm_downtime_s": 120.0, "storm_duration_s": None,
            "storm_session_s": 120, "storm_time_s": 30,
        },
    },
    "cold-start": {"name": "cold-start", "params": {"files_per_peer": 1}},
    "cold-start:files_per_peer=2": {
        "name": "cold-start", "params": {"files_per_peer": 2},
    },
    "diurnal": {"name": "diurnal", "params": {"amplitude": 0.6, "period_s": None}},
    "diurnal:period_s=90,amplitude=0.25": {
        "name": "diurnal", "params": {"amplitude": 0.25, "period_s": 90},
    },
    "flash-crowd": {
        "name": "flash-crowd",
        "params": {"spike_probability": 0.8, "spike_time_s": None},
    },
    "flash-crowd:spike_time_s=12.5,spike_probability=1": {
        "name": "flash-crowd",
        "params": {"spike_probability": 1, "spike_time_s": 12.5},
    },
    "popularity-shift": {"name": "popularity-shift", "params": {"interval_s": None}},
    "popularity-shift:interval_s=45.0": {
        "name": "popularity-shift", "params": {"interval_s": 45.0},
    },
    "regional-hotspot": {
        "name": "regional-hotspot",
        "params": {"hot_set_size": 10, "hotspot_probability": 0.8},
    },
    "regional-hotspot:hotspot_probability=0.5,hot_set_size=3": {
        "name": "regional-hotspot",
        "params": {"hot_set_size": 3, "hotspot_probability": 0.5},
    },
}


def test_every_registered_scenario_is_pinned_at_its_defaults():
    assert sorted(entry for entry in PINNED if ":" not in entry) == scenario_names()
    variants = {entry.split(":")[0] for entry in PINNED if ":" in entry}
    assert variants == set(scenario_names()) - {"baseline"}


@pytest.mark.parametrize("entry", sorted(PINNED))
def test_the_scenario_payload_is_pinned(entry):
    spec = GridSpec(
        base_config=small_config(), protocols=("flooding",), scenarios=(entry,)
    )
    (cell,) = spec.expand()
    payload = spec.cell_key_payload(cell)["scenario"]
    assert canonical_json(payload) == canonical_json(PINNED[entry])
