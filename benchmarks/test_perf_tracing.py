"""Tracing-off overhead gate for the observability layer (``BENCH_tracing.json``).

The telemetry/tracing layer must be free when it is off.  "Off" is the
default ``run_protocol`` path: a :class:`NullTracer`, guarded emit
sites, unconditional operational counters, queue-peak tracking in
``schedule_at``, and one post-run telemetry collection.  This bench
times that path against a reconstructed *pre-observability* baseline
on the BENCH_scale frontier cell and asserts the overhead stays under
a ceiling stated against the host's noise floor: the median over
interleaved pairs must not exceed 3 % *plus* what two runs of the
baseline itself differ by on this host at this moment.

The baseline cannot be a historical wall-clock number (machines
differ), so it is rebuilt in-process: ``Simulator.schedule_at`` is
monkeypatched back to a peak-free version and telemetry collection is
disabled (``collect_telemetry=False``).  Messages enter the queue
through ``Simulator.schedule_fanout``, which updates the peak once per
fan-out on both sides.  The guarded trace emits and
the new counters stay in — they are part of the instrumented code
under test — so the measured delta is, if anything, an overestimate
of what the observability layer costs relative to the previous code.

Scale knobs (CI runs a cheap pass, a workstation can push harder):

- ``REPRO_BENCH_TRACING_PEERS``   — frontier cell size (default 600);
- ``REPRO_BENCH_TRACING_QUERIES`` — query horizon (default 300).

Results land in ``BENCH_tracing.json`` at the repo root under
``REPRO_BENCH_WRITE=1``.
"""

import os
from heapq import heappush
from math import inf, isfinite

import pytest
from conftest import time_interleaved, write_bench_json

from repro.experiments import run_protocol, small_config
from repro.overlay import NetworkBlueprint
from repro.sim.engine import SchedulingError, Simulator

PROTOCOL = "locaware"

#: Ceiling on tracing-off overhead versus the reconstructed baseline,
#: as a percentage of baseline wall-clock, on top of the noise floor.
OVERHEAD_CEILING_PCT = 3.0

#: Instrumented runs, each timed between two baseline runs so drift
#: hits both sides equally; the gate reads the median.
PAIRS = 7


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


NUM_PEERS = _env_int("REPRO_BENCH_TRACING_PEERS", 600)
QUERIES = _env_int("REPRO_BENCH_TRACING_QUERIES", 300)


def _scale_config(num_peers, seed=11):
    """The BENCH_scale frontier cell: small-config ratios scaled to
    ``num_peers`` on the router substrate (mirrors test_perf_scale)."""
    return small_config(seed=seed).replace(
        num_peers=num_peers,
        num_files=3 * num_peers,
        keyword_pool_size=9 * num_peers,
        latency_model="router",
        query_rate_per_peer=0.02,
    )


def _untracked_schedule_at(self, time, callback, *args):
    """``Simulator.schedule_at`` minus its two queue-peak lines."""
    if not self._now <= time < inf:
        if isfinite(time):
            raise SchedulingError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        raise SchedulingError(f"event time must be finite, got {time!r}")
    queue = self._queue
    event = (time, self._seq, callback, args)
    self._seq += 1
    heappush(queue, event)
    return event


def _drive_engine(sim):
    """A small program over every way an event enters, waits in and
    leaves the queue; returns what was queued and what fired."""
    fired = []
    sim.schedule(1.0, fired.append, "kept")
    dropped = sim.schedule_at(2.0, fired.append, "cancelled")
    sim.schedule(3.0, lambda: sim.schedule(0.5, fired.append, "nested"))
    sim.cancel(dropped)
    queued = [(type(event), event[:2], event[3]) for event in sorted(sim._queue)]
    sim.run()
    return queued, fired, sim.now, sim.events_processed, sim.pending_events


def _check_twin_matches_live_engine():
    """Fail loudly if the pasted twin and the live ``schedule_at`` have
    drifted apart: the twin must queue exactly what the live method
    queues, in entries the live ``run``/``cancel`` understand, and
    differ in nothing but the peak it does not track.  Otherwise the
    bench would time a broken baseline, not the cost of observability."""
    live = Simulator()
    expected = _drive_engine(live)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "schedule_at", _untracked_schedule_at)
        twin = Simulator()
        got = _drive_engine(twin)
    assert got == expected, (
        "benchmarks/test_perf_tracing.py:_untracked_schedule_at no longer "
        "matches Simulator.schedule_at; rebuild it from the live method "
        f"minus the queue-peak lines (twin {got!r}, live {expected!r})"
    )
    assert expected[1] == ["kept", "nested"]
    assert (live.queue_peak, twin.queue_peak) == (3, 0)


def test_perf_tracing_off_overhead(show):
    _check_twin_matches_live_engine()
    config = _scale_config(NUM_PEERS)
    blueprint = NetworkBlueprint.build(config)

    def run_instrumented():
        run_protocol(
            config, PROTOCOL, max_queries=QUERIES, bucket_width=QUERIES,
            blueprint=blueprint,
        )

    def run_baseline():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Simulator, "schedule_at", _untracked_schedule_at)
            run_protocol(
                config, PROTOCOL, max_queries=QUERIES, bucket_width=QUERIES,
                blueprint=blueprint, collect_telemetry=False,
            )

    # One untimed warmup each, then the interleaved timed repeats.
    run_baseline()
    run_instrumented()
    timing = time_interleaved(run_baseline, run_instrumented, pairs=PAIRS)
    overhead_pct = 100.0 * (timing.ratio - 1.0)
    noise_pct = 100.0 * timing.noise

    payload = {
        "config": {
            "protocol": PROTOCOL,
            "num_peers": NUM_PEERS,
            "queries": QUERIES,
            "latency_model": "router",
            "pairs": PAIRS,
        },
        "overhead_pct": overhead_pct,
        "noise_floor_pct": noise_pct,
        "ceiling_pct": OVERHEAD_CEILING_PCT,
        "baseline_times_s": timing.baseline_s,
        "instrumented_times_s": timing.candidate_s,
    }
    written = write_bench_json("tracing", payload)

    show(
        "BENCH tracing-off overhead "
        f"({PROTOCOL}, {NUM_PEERS} peers, {QUERIES} queries, router, "
        f"{PAIRS} interleaved pairs)\n"
        f"    baseline (no telemetry, untracked queue): "
        f"{min(timing.baseline_s):7.3f} s best\n"
        f"    instrumented (NullTracer + telemetry):    "
        f"{min(timing.candidate_s):7.3f} s best\n"
        f"    median overhead: {overhead_pct:+.2f}% "
        f"(ceiling {OVERHEAD_CEILING_PCT:.1f}% + noise floor {noise_pct:.2f}%)\n"
        f"    {written}"
    )

    assert overhead_pct < OVERHEAD_CEILING_PCT + noise_pct, (
        f"tracing-off path is {overhead_pct:.2f}% slower than the "
        f"pre-observability baseline (ceiling {OVERHEAD_CEILING_PCT}% + "
        f"baseline-vs-baseline noise {noise_pct:.2f}%)"
    )
