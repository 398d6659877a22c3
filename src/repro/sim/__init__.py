"""Discrete-event simulation substrate (the PeerSim equivalent).

Public surface:

- :class:`Simulator`, :data:`Event` — the event loop;
- :class:`PeriodicProcess` — a calendar of recurring ticks that share
  one period, one heap entry for all its members;
- :class:`RandomStreams` — deterministic named randomness;
- :class:`SimulationConfig` — every knob of the reproduction, defaults
  matching the paper's §5.1 setup;
- metric primitives (:class:`Counter`, :class:`Summary`,
  :class:`BucketedSeries`, :class:`MetricRegistry`);
- tracing hooks (:class:`Tracer` and friends);
- :func:`gc_paused` — the one place the cyclic collector is switched;
- the :mod:`~repro.sim.errors` hierarchy.
"""

from .config import SimulationConfig
from .engine import Event, PeriodicProcess, Simulator
from .errors import (
    CancelledEventError,
    ConfigurationError,
    EventLoopError,
    SchedulingError,
    SimulationError,
)
from .gc_pause import gc_paused
from .metrics import BucketedSeries, Counter, MetricRegistry, Summary
from .rng import RandomStreams, derive_seed
from .telemetry import PhaseTimers, RunTelemetry, collect_run_telemetry
from .tracing import (
    JsonlTracer,
    NullTracer,
    PrintTracer,
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
    "Summary",
    "BucketedSeries",
    "MetricRegistry",
    "PhaseTimers",
    "RunTelemetry",
    "collect_run_telemetry",
    "gc_paused",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "PrintTracer",
    "JsonlTracer",
    "TraceEvent",
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "EventLoopError",
    "CancelledEventError",
]
