"""Experiment driver: build → run → measure, one protocol at a time.

:func:`run_protocol` executes one protocol under one configuration and
query horizon.  Everything with more than one run — the paper's
four-way comparison included, as one seed and one scenario of a
:class:`~repro.experiments.grid.GridSpec` — is a grid
(:mod:`repro.experiments.grid`), which calls it once per cell.

A run ends at the event that settles it — the workload fully generated
and every in-flight query finalised (:func:`drive_until_settled`).
Every quantity the paper reports is per query, so nothing after that
event can enter a result; background processes (Bloom pushes, churn)
would otherwise keep the event queue alive forever.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ..analysis.collectors import (
    MetricSeries,
    OutcomeSummary,
    collect_series,
    summarize_outcomes,
)
from ..bloom.bloom_filter import positions_cache_clear
from ..core.locaware import LocawareProtocol, LocawareRoutingProtocol
from ..overlay.blueprint import NetworkBlueprint
from ..overlay.churn import ChurnProcess
from ..overlay.network import P2PNetwork
from ..protocols.base import QueryOutcome, SearchProtocol
from ..protocols.dicas import DicasProtocol
from ..protocols.dicas_keys import DicasKeysProtocol
from ..protocols.flooding import FloodingProtocol
from ..protocols.groups import hash_cache_clear
from ..scenarios import Scenario, ScenarioContext, get_scenario
from ..sim.config import SimulationConfig
from ..sim.gc_pause import gc_paused
from ..sim.telemetry import PhaseTimers, RunTelemetry, collect_run_telemetry
from ..sim.tracing import JsonlTracer, Tracer
from ..workload.generator import QueryWorkload

__all__ = [
    "PROTOCOL_REGISTRY",
    "DEFAULT_PROTOCOL_ORDER",
    "ProtocolRun",
    "run_protocol",
    "drive_until_settled",
]

#: name → protocol class: the paper's four in its presentation order,
#: then the §6 location-aware routing extension.
PROTOCOL_REGISTRY: dict[str, type[SearchProtocol]] = {
    "flooding": FloodingProtocol,
    "dicas": DicasProtocol,
    "dicas-keys": DicasKeysProtocol,
    "locaware": LocawareProtocol,
    "locaware+locrouting": LocawareRoutingProtocol,
}

DEFAULT_PROTOCOL_ORDER = ("flooding", "dicas", "dicas-keys", "locaware")

#: How often (virtual seconds) the driver's watchdog looks at a run that
#: has not settled.  Not the stopping rule: a run ends at its settling
#: event, wherever that falls inside a slice.
_TIME_SLICE_S = 500.0
#: Hard cap on watchdog iterations (protects against scheduling bugs).
_MAX_SLICES = 1_000_000


@dataclass
class ProtocolRun:
    """Everything measured from one protocol's run."""

    protocol_name: str
    config: SimulationConfig
    outcomes: list[QueryOutcome]
    summary: OutcomeSummary
    series: MetricSeries
    locally_satisfied: int
    sim_time_s: float
    events_processed: int
    metric_snapshot: dict[str, float]
    scenario_name: str | None = None
    """Registered scenario the run used, if any."""

    telemetry: RunTelemetry | None = None
    """Operational sidecar (wall-clock phases, engine stats, counters).

    Never part of persisted documents or determinism fingerprints — two
    identical runs legitimately differ here."""


def make_protocol(name: str, network: P2PNetwork) -> SearchProtocol:
    """Instantiate a registered protocol on ``network``."""
    try:
        cls = PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOL_REGISTRY)}"
        ) from None
    return cls(network)


@gc_paused()
def run_protocol(
    config: SimulationConfig,
    protocol_name: str,
    max_queries: int,
    bucket_width: int,
    tracer: Tracer | None = None,
    scenario: Scenario | str | None = None,
    blueprint: NetworkBlueprint | None = None,
    trace_path: str | Path | None = None,
    trace_kinds: Sequence[str] | None = None,
    collect_telemetry: bool = True,
) -> ProtocolRun:
    """Run one protocol to completion and collect its metrics.

    ``scenario`` — a :class:`~repro.scenarios.Scenario` instance or
    registered scenario name — applies the scenario's config overrides,
    builds its workload, and runs its install hook.

    ``blueprint`` — an optional pre-built
    :class:`~repro.overlay.blueprint.NetworkBlueprint` to instantiate
    instead of building the world from scratch.  It must carry the same
    topology fingerprint as the *effective* configuration (after the
    scenario's overrides); results are byte-identical either way.

    ``trace_path`` streams every trace event to a JSONL file (see
    :class:`~repro.sim.tracing.JsonlTracer`); ``trace_kinds`` optionally
    restricts the recorded kinds.  Mutually exclusive with ``tracer``.
    Tracing never changes results — outcomes, metric snapshots, and
    fingerprints are byte-identical with tracing on or off.

    ``collect_telemetry`` attaches a
    :class:`~repro.sim.telemetry.RunTelemetry` sidecar to the returned
    run (wall-clock phases, event-loop stats, operational counters);
    it too is inert — assembled read-only after the run finishes.

    The whole call runs with the cyclic collector paused
    (:func:`~repro.sim.gc_pause.gc_paused`): a cell creates no cyclic
    garbage, and once telemetry is read the simulator's leftover events
    are dropped (:meth:`~repro.sim.engine.Simulator.clear`), so
    reference counting frees the finished network as the call returns
    and no young collection follows the cell.
    """
    if max_queries < 1:
        raise ValueError(f"max_queries must be >= 1, got {max_queries}")
    if trace_path is not None and tracer is not None:
        raise ValueError("trace_path and tracer are mutually exclusive")
    if trace_kinds is not None and trace_path is None:
        raise ValueError("trace_kinds requires trace_path")
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if scenario is not None:
        configured = scenario.configure(config)
        if (
            not scenario.touches_topology
            and configured.topology_fingerprint() != config.topology_fingerprint()
        ):
            raise RuntimeError(
                f"scenario {scenario.name!r} declares touches_topology=False "
                "but its overrides changed the topology fingerprint; fix the "
                "declaration or the overrides"
            )
        config = configured
    own_tracer: JsonlTracer | None = None
    if trace_path is not None:
        own_tracer = JsonlTracer(
            trace_path, kinds=list(trace_kinds) if trace_kinds is not None else None
        )
        tracer = own_tracer
    timers = PhaseTimers()
    try:
        if blueprint is not None:
            if not blueprint.compatible_with(config):
                raise ValueError(
                    "blueprint is topology-incompatible with the effective "
                    f"configuration of this run (protocol {protocol_name!r}, "
                    f"scenario {scenario.name if scenario else None!r})"
                )
            with timers.phase("instantiate"):
                network = blueprint.instantiate(config=config, tracer=tracer)
        else:
            with timers.phase("build"):
                built = NetworkBlueprint.build(config)
            with timers.phase("instantiate"):
                network = built.instantiate(tracer=tracer)
        with timers.phase("instantiate"):
            protocol = make_protocol(protocol_name, network)
            protocol.start()
            churn: ChurnProcess | None = None
            if config.churn_enabled:
                churn = ChurnProcess(
                    network,
                    config.mean_session_s,
                    config.mean_downtime_s,
                    network.streams.stream("churn"),
                )
                churn.start()
            if scenario is None:
                workload = QueryWorkload(
                    network, protocol.issue_query, max_queries=max_queries
                )
            else:
                workload = scenario.build_workload(
                    network, protocol.issue_query, max_queries
                )
                scenario.install(
                    ScenarioContext(
                        network=network, protocol=protocol, workload=workload,
                        churn=churn,
                    )
                )
        with timers.phase("simulate"):
            workload.start()
            drive_until_settled(network, protocol, workload, max_queries)
            stop = getattr(protocol, "stop", None)
            if callable(stop):
                stop()
        with timers.phase("finalize"):
            run = ProtocolRun(
                protocol_name=protocol_name,
                config=config,
                outcomes=list(protocol.outcomes),
                summary=summarize_outcomes(protocol.outcomes),
                series=collect_series(protocol.outcomes, bucket_width),
                locally_satisfied=protocol.local_satisfactions,
                sim_time_s=network.sim.now,
                events_processed=network.sim.events_processed,
                metric_snapshot=network.metrics.snapshot(),
                scenario_name=scenario.name if scenario is not None else None,
            )
    finally:
        if own_tracer is not None:
            own_tracer.close()
    if collect_telemetry:
        run.telemetry = collect_run_telemetry(network, timers, tracer=tracer)
    # What the settled run left queued reaches back to the network that
    # owns the queue; without it the network is freed on return.  The
    # hash memos hold this cell's filenames and keywords: empty them too.
    network.sim.clear()
    hash_cache_clear()
    positions_cache_clear()
    return run


def drive_until_settled(
    network: P2PNetwork,
    protocol: SearchProtocol,
    workload: QueryWorkload,
    max_queries: int,
) -> None:
    """Run the simulation up to the event that settles it, and no further.

    Settled means ``workload.generated >= max_queries`` and
    ``protocol.pending_queries == 0``.  That can only become true at
    the end of a query's finalisation or of an arrival, so the driver
    hooks those two (``protocol.on_idle``, ``workload.on_arrival``) and
    stops the engine from inside the settling event: ``network.sim.now``
    is then that event's timestamp — normally the last issue time plus
    ``query_timeout_s`` — and Bloom pushes, churn timers or downloads
    still in flight stay queued, unexecuted.

    ``workload`` is anything with ``generated``, ``on_arrival`` and a
    running arrival process (:class:`~repro.workload.QueryWorkload`, its
    scenario subclasses, :class:`~repro.workload.TraceReplayer`).

    Raises :class:`RuntimeError` if the event queue drains before the
    workload finished generating, if the run never settles, or if it
    settles with a query unaccounted for — every generated query must be
    a finalised outcome or a local satisfaction.
    """
    sim = network.sim

    def settled() -> bool:
        return workload.generated >= max_queries and protocol.pending_queries == 0

    def stop_if_settled() -> None:
        if settled():
            sim.stop()

    protocol.on_idle = workload.on_arrival = stop_if_settled
    try:
        for _ in range(_MAX_SLICES):
            if settled():
                finalised = len(protocol.outcomes)
                local = protocol.local_satisfactions
                if finalised + local != workload.generated:
                    raise RuntimeError(
                        f"settled with {finalised} finalised + {local} locally "
                        "satisfied queries, but the workload generated "
                        f"{workload.generated}"
                    )
                return
            if sim.peek_time() is None:
                if workload.generated < max_queries:
                    raise RuntimeError(
                        "event queue drained before the workload finished: "
                        f"{workload.generated} of {max_queries} queries "
                        "generated; the workload stopped rescheduling itself "
                        "(e.g. every peer died with no revival timer armed)"
                    )
                return
            sim.run(until=sim.now + _TIME_SLICE_S)
    finally:
        # The hooks close over the protocol that holds them: leave no
        # reference cycle behind (a cell is a collector-free region).
        protocol.on_idle = workload.on_arrival = None
    raise RuntimeError(
        "simulation did not settle; check for runaway event scheduling"
    )

