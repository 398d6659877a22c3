"""Per-run operational telemetry: where wall-clock and events actually go.

:class:`RunTelemetry` packages three views of one finished run:

- **phases** — wall-clock seconds per driver phase (blueprint ``build``,
  ``instantiate``, ``simulate``, ``finalize``), measured by
  :class:`PhaseTimers`;
- **engine** — event-loop statistics from the simulator (events
  processed, events per wall-clock second, future-event-list high-water
  mark) and ``gc_collections``, the interpreter's per-generation
  collection counts over the run (``[0, 0, 0]`` under
  :func:`~repro.sim.gc_pause.gc_paused`);
- **protocol** — operational counters read back from the run's
  :class:`~repro.sim.metrics.MetricRegistry` (index-cache hit ratio,
  Bloom membership tests and a false-positive estimate, the message
  mix, churn joins/leaves).

Telemetry is a *sidecar*: it is assembled read-only after a run
finishes, lives outside the scientific result (never part of
content-addressed keys, stored cell documents, or determinism
fingerprints), and contains wall-clock values that legitimately differ
between two otherwise identical runs.  Anything that must stay
byte-identical must therefore never read from it.
"""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TELEMETRY_VERSION",
    "PhaseTimers",
    "RunTelemetry",
    "collect_run_telemetry",
    "sanitize_for_json",
]

#: Format version stamped into every telemetry document.
TELEMETRY_VERSION = 1

#: ``Peer.protocol_state`` key under which Locaware-family protocols
#: keep their Bloom state (mirrors ``core.bloom_router._STATE_KEY``;
#: duplicated here because the sim layer must not import core).
_BLOOM_STATE_KEY = "locaware_bloom"


def _gc_collections() -> list[int]:
    """The interpreter's running collection count, youngest generation first."""
    return [generation["collections"] for generation in gc.get_stats()]


class PhaseTimers:
    """Named wall-clock stopwatches for the phases of one run.

    Use as ``with timers.phase("simulate"): ...``; re-entering a name
    accumulates.  The clock is injectable for tests.  Construction also
    marks the start of the run for :meth:`gc_collections`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.durations_s: dict[str, float] = {}
        self._gc_collections_at_start = _gc_collections()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase; elapsed seconds accumulate under ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self.durations_s[name] = self.durations_s.get(name, 0.0) + elapsed

    def get(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 if never entered)."""
        return self.durations_s.get(name, 0.0)

    def total_s(self) -> float:
        """Sum of every phase's accumulated seconds."""
        return sum(self.durations_s.values())

    def gc_collections(self) -> list[int]:
        """Cyclic-GC collections per generation since construction."""
        return [
            now - start
            for now, start in zip(_gc_collections(), self._gc_collections_at_start)
        ]


def sanitize_for_json(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    Telemetry documents are written with ``allow_nan=False`` (the same
    strictness as result-store documents), so NaN ratios from empty
    denominators must become JSON ``null`` first.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: sanitize_for_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_for_json(v) for v in value]
    return value


@dataclass
class RunTelemetry:
    """Operational sidecar for one finished run.  See the module docstring."""

    phases_s: dict[str, float] = field(default_factory=dict)
    engine: dict[str, Any] = field(default_factory=dict)
    protocol: dict[str, Any] = field(default_factory=dict)
    tracing: dict[str, Any] = field(default_factory=dict)
    version: int = TELEMETRY_VERSION

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (non-finite floats replaced with ``None``)."""
        return sanitize_for_json(
            {
                "version": self.version,
                "phases_s": dict(self.phases_s),
                "engine": dict(self.engine),
                "protocol": dict(self.protocol),
                "tracing": dict(self.tracing),
            }
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def _bloom_stats(network: Any, snapshot: dict[str, float]) -> dict[str, Any]:
    """Membership-test count plus a false-positive estimate.

    The estimate is the classic ``fill_fraction ** hashes`` per exported
    filter, averaged over the live population of a run that has a Bloom
    router (``counter.bloom.membership_tests`` is in the snapshot exactly
    then): Bloom state is made on first use, so a live peer without any
    is the empty filter it would export.  Reads the end-of-run filters
    without touching them.  Empty for protocols with no Bloom state.
    """
    has_router = "counter.bloom.membership_tests" in snapshot
    fills = []
    fp_estimates = []
    for peer in getattr(network, "peers", ()):  # duck-typed: sim must not import overlay
        state = peer.protocol_state.get(_BLOOM_STATE_KEY)
        exported = getattr(state, "exported", None)
        if exported is not None:
            fill = exported.fill_fraction()
            fills.append(fill)
            fp_estimates.append(fill**exported.hashes)
        elif has_router and peer.alive:
            fills.append(0.0)
            fp_estimates.append(0.0)
    out: dict[str, Any] = {
        "membership_tests": int(snapshot.get("counter.bloom.membership_tests", 0)),
        "update_bits_mean": snapshot.get("summary.bloom.update_bits.mean", math.nan),
        "filters": len(fills),
    }
    if fills:
        out["mean_fill_fraction"] = sum(fills) / len(fills)
        out["false_positive_estimate"] = sum(fp_estimates) / len(fp_estimates)
    return out


def collect_run_telemetry(
    network: Any,
    phases: PhaseTimers,
    tracer: Any | None = None,
) -> RunTelemetry:
    """Assemble a :class:`RunTelemetry` from a finished run.

    Strictly read-only: everything comes from the metric snapshot, the
    simulator's counters, and (for the Bloom estimate) the end-of-run
    filter state.  ``tracer`` adds a tracing section when it exposes
    ``events_written`` (i.e. a :class:`~repro.sim.tracing.JsonlTracer`).
    """
    snapshot = network.metrics.snapshot()
    sim = network.sim
    simulate_s = phases.get("simulate")
    lookups = snapshot.get("counter.index.lookups", 0.0)
    hits = snapshot.get("counter.index.hits", 0.0)

    messages = {
        name[len("counter.messages.") :]: int(value)
        for name, value in sorted(snapshot.items())
        if name.startswith("counter.messages.") and name != "counter.messages.total"
    }

    telemetry = RunTelemetry(
        phases_s={**phases.durations_s, "total": phases.total_s()},
        engine={
            "events_processed": sim.events_processed,
            "events_per_s": (
                sim.events_processed / simulate_s if simulate_s > 0 else math.nan
            ),
            "queue_peak": sim.queue_peak,
            "sim_time_s": sim.now,
            "gc_collections": phases.gc_collections(),
        },
        protocol={
            "index": {
                "lookups": int(lookups),
                "hits": int(hits),
                "inserts": int(snapshot.get("counter.index.inserts", 0)),
                "evictions": int(snapshot.get("counter.index.evictions", 0)),
                "hit_ratio": _ratio(hits, lookups),
            },
            "queries": {
                "issued": int(snapshot.get("counter.queries.issued", 0)),
                "succeeded": int(snapshot.get("counter.queries.succeeded", 0)),
                "failed": int(snapshot.get("counter.queries.failed", 0)),
                "satisfied_locally": int(
                    snapshot.get("counter.queries.satisfied_locally", 0)
                ),
            },
            "bloom": _bloom_stats(network, snapshot),
            "messages": {
                "total": int(snapshot.get("counter.messages.total", 0)),
                **messages,
            },
            "churn": {
                "leaves": int(snapshot.get("counter.churn.leaves", 0)),
                "rejoins": int(snapshot.get("counter.churn.rejoins", 0)),
            },
        },
    )
    if tracer is not None and hasattr(tracer, "events_written"):
        telemetry.tracing = {
            "tracer": type(tracer).__name__,
            "events_written": tracer.events_written,
            "events_dropped": getattr(tracer, "events_dropped", 0),
            "path": str(getattr(tracer, "path", "")) or None,
        }
    return telemetry
