"""Named deployment scenarios for the sweep runner.

Importing this package registers the built-in library (flash-crowd,
regional-hotspot, churn-storm, cold-start, diurnal, popularity-shift,
plus the paper's baseline).  See :mod:`repro.scenarios.base` for the
registry API and :mod:`repro.scenarios.library` for the scenarios
themselves.
"""

from .base import (
    SCENARIO_CLASSES,
    SCENARIO_REGISTRY,
    Scenario,
    ScenarioContext,
    expected_horizon_s,
    get_scenario,
    make_scenario,
    register_scenario,
    scenario_names,
    scenario_parameters,
)
from .library import (
    Baseline,
    ChurnStorm,
    ColdStart,
    Diurnal,
    FlashCrowd,
    PopularityShift,
    RegionalHotspot,
)
from .workloads import (
    DiurnalWorkload,
    FlashCrowdWorkload,
    RegionalHotspotWorkload,
)

__all__ = [
    "Scenario",
    "ScenarioContext",
    "SCENARIO_REGISTRY",
    "SCENARIO_CLASSES",
    "register_scenario",
    "get_scenario",
    "make_scenario",
    "scenario_parameters",
    "scenario_names",
    "expected_horizon_s",
    "Baseline",
    "FlashCrowd",
    "RegionalHotspot",
    "ChurnStorm",
    "ColdStart",
    "Diurnal",
    "PopularityShift",
    "FlashCrowdWorkload",
    "RegionalHotspotWorkload",
    "DiurnalWorkload",
]
