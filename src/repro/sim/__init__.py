"""Discrete-event simulation substrate (the PeerSim equivalent).

Public surface:

- :class:`Simulator`, :data:`Event` — the event loop;
- :class:`PeriodicProcess` — a calendar of recurring ticks that share
  one period, one heap entry for all its members;
- :class:`RandomStreams` — deterministic named randomness;
- :class:`SimulationConfig` — every knob of the reproduction, defaults
  matching the paper's §5.1 setup;
- :class:`MetricRegistry` — one run's named :class:`Counter` values
  (the per-query figure series are computed from the run's outcomes,
  in :mod:`repro.analysis.collectors`);
- tracing hooks: the :class:`Tracer` interface, the default
  :class:`NullTracer`, :class:`RecordingTracer` for tests and
  :class:`JsonlTracer` for trace files;
- :func:`gc_paused` — the one place the cyclic collector is switched;
- the :mod:`~repro.sim.errors` hierarchy.
"""

from .config import SimulationConfig
from .engine import Event, PeriodicProcess, Simulator
from .errors import (
    ConfigurationError,
    EventLoopError,
    SchedulingError,
    SimulationError,
)
from .gc_pause import gc_paused
from .metrics import Counter, MetricRegistry
from .rng import RandomStreams, derive_seed
from .telemetry import PhaseTimers, RunTelemetry, collect_run_telemetry
from .tracing import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "Simulator",
    "Event",
    "PeriodicProcess",
    "RandomStreams",
    "derive_seed",
    "SimulationConfig",
    "Counter",
    "MetricRegistry",
    "PhaseTimers",
    "RunTelemetry",
    "collect_run_telemetry",
    "gc_paused",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "TraceEvent",
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "EventLoopError",
]
