#!/usr/bin/env python3
"""The repo's benchmark: one grid-run cell stream per workload.

Two ways in, one measurement:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    Measure one workload in this process and print, as the last line of
    standard output, one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the end-to-end metrics with ``--trace
    0``, the per-layer metrics with ``--trace 1``.  This is the contract
    described by ``BENCHMARK.json``.

``python3 bench/run.py [--seed 11] [--workloads a,b] [--rounds 1]
[--no-trace] [--out FILE]``
    Run every workload, each in a fresh subprocess of the first form,
    round-robin over ``--rounds``; print every metric by name with its
    unit (median and quartiles over rounds) and write them with their
    provenance to ``bench/out/`` or ``--out``.  Exits non-zero if any
    cell failed.  ``--record-golden`` rewrites ``bench/golden.json``.

What is timed is exactly what ``repro grid run --reuse-builds --store
DIR`` does with one worker: ``GridRunner(spec, workers=1,
reuse_builds=True, store=ResultStore(dir)).run(progress=...)`` followed
by ``render_sweep_report(report)``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from canary import MIN_SAMPLES, HostCanary  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

GOLDEN_PATH = BENCH / "golden.json"
DEFAULT_OUT = BENCH / "out"
#: Set-up is measured in this many fresh interpreters; ``setup_s`` is
#: their median.
SETUP_PROBES = 3
#: ``peak_rss_mb`` is the high-water mark after this many batches (or
#: the workload's prefix, if longer); see :func:`end_to_end`.
RSS_BATCHES = 4
#: Spans whose calls and self seconds become per-layer metrics.  Names
#: follow ``<layer>.<what>_calls`` / ``_self_s``; the few ``_s`` names
#: are phases with no traced children, where self time is duration.
TRACED_CALLS = (
    "sim.schedule", "overlay.send", "net.latency", "bloom.encode", "files.add",
    "files.match", "protocols.select", "results.put", "results.get",
    "results.has", "results.claim",
)
TRACED_SECONDS = {
    "sim.schedule": "sim.schedule_self_s",
    "sim.run": "sim.run_self_s",
    "sim.handlers": "sim.handlers_self_s",
    "overlay.send": "overlay.send_self_s",
    "overlay.build": "overlay.build_self_s",
    "overlay.instantiate": "overlay.instantiate_self_s",
    "overlay.handlers": "overlay.handlers_self_s",
    "net.latency": "net.latency_self_s",
    "bloom.encode": "bloom.encode_self_s",
    "bloom.contains": "bloom.contains_self_s",
    "files.add": "files.add_self_s",
    "files.match": "files.match_self_s",
    "protocols.select": "protocols.select_self_s",
    "protocols.handlers": "protocols.handlers_self_s",
    "core.index": "core.index_self_s",
    "core.handlers": "core.handlers_self_s",
    "workload.arrival": "workload.arrival_self_s",
    "scenarios.handlers": "scenarios.handlers_self_s",
    "experiments.grid_run": "experiments.grid_run_self_s",
    "experiments.key_payload": "experiments.key_payload_self_s",
    "experiments.run_protocol": "experiments.run_protocol_self_s",
    "analysis.to_document": "analysis.to_document_s",
    "analysis.load_document": "analysis.load_document_s",
    "analysis.report": "analysis.report_s",
    "results.put": "results.put_s",
    "results.get": "results.get_s",
    "results.has": "results.has_s",
    "results.sidecar_put": "results.sidecar_put_s",
    "results.claim": "results.claim_s",
    "results.release": "results.release_s",
    "results.key": "results.key_s",
}


def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the declared workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one batch -----------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """What one batch cost; all a run keeps of it once it is checked."""

    cells: int
    wall_s: float
    cpu_s: float
    render_s: float
    builds: int
    #: the process's high-water RSS when this batch ended
    peak_rss_mb: float
    #: host speed over this batch alone; None when the canary sampled it
    #: fewer than ``MIN_SAMPLES`` times (the run's speed stands in)
    speed: float | None = None


@dataclass
class Batch:
    """One timed ``GridRunner.run`` + ``render_sweep_report`` and its outputs."""

    spec: Any
    store: Any
    report: Any
    text: str
    timing: Timing


def run_batch(
    spec: Any,
    store_root: Path,
    canary: HostCanary | None = None,
    tracer: LayerTracer | None = None,
) -> Batch:
    """The timed region: run ``spec`` against a freshly opened store.

    With a ``canary`` the region is sampled by it, and the seconds its
    kernel took (pure CPU) come off both clocks.  With a ``tracer`` its
    wrappers are installed for exactly the region, so the spans it
    records are the region's and nothing else's.
    """
    from repro import analysis, experiments, results
    from repro.overlay import blueprint

    notes: list[str] = []
    builds = blueprint.build_count()
    busy = 0.0
    first_sample = len(canary.rates) if canary is not None else 0
    with tracer or nullcontext():
        if canary is not None:
            canary.active = True
            busy = -canary.busy_s
        wall = time.perf_counter()
        cpu = time.process_time()
        store = results.ResultStore(store_root)
        report = experiments.GridRunner(
            spec, workers=1, reuse_builds=True, store=store
        ).run(progress=notes.append)
        rendered = time.perf_counter()
        text = analysis.render_sweep_report(report)
        done = time.perf_counter()
        cpu = time.process_time() - cpu
        if canary is not None:
            canary.active = False
            busy += canary.busy_s
    timing = Timing(
        cells=spec.num_cells,
        wall_s=done - wall - busy,
        cpu_s=cpu - busy,
        render_s=done - rendered,
        builds=blueprint.build_count() - builds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        speed=(
            canary.speed(first_sample)
            if canary is not None and len(canary.rates) - first_sample >= MIN_SAMPLES
            else None
        ),
    )
    return Batch(spec=spec, store=store, report=report, text=text, timing=timing)


def forget_blueprints() -> None:
    """Empty the grid's per-process blueprint cache.

    A pass stands for a fresh ``repro grid run`` process, so it must not
    find its worlds already built: not by the warm-up cell (the grid
    workloads share its 60-peer topology) and not by the untraced pass
    whose seeds the traced pass repeats.  The cache is the one private
    name the benchmark touches.
    """
    from repro.experiments import grid

    grid._BLUEPRINT_CACHE.clear()


def set_up(workload: Workload, seed: int, tmp: Path) -> Batch | None:
    """Everything a run pays before its timed region.

    Imports, one untimed 60-peer warm-up cell (so lazy initialisation is
    not billed to the first timed cell), and — for a warm workload — the
    cold run that populates the store the timed passes read.
    """
    warm_up = Workload("warm-up", ("locaware",), ("baseline",), 60, 20, 1, 1)
    run_batch(warm_up.spec(seed), tmp / "warm-up")
    forget_blueprints()
    return run_batch(workload.spec(seed), tmp / "store") if workload.warm else None


# -- checking outputs ----------------------------------------------------------


def science_digest(run_doc: dict[str, Any]) -> str:
    """sha256 over the science fields of a stored run document.

    ``sim_time_s`` and ``events_processed`` are left out on purpose: the
    planned stop-at-settle change (ROADMAP 2a) moves them without moving
    the science, and they are reported as ``sim.*`` counts instead.
    """
    science = {k: run_doc[k] for k in ("summary", "series", "locally_satisfied")}
    blob = json.dumps(science, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checked:
    """What reading a batch's outputs back found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: cell id → science digest
    digests: dict[str, str] = field(default_factory=dict)
    #: (document, telemetry) of the cells this batch executed
    executed: list[tuple[dict[str, Any], dict[str, Any]]] = field(default_factory=list)
    stored_bytes: int = 0

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(why)

    def count(self, other: Checked) -> None:
        """Add ``other``'s verdicts, not the documents behind them."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def merge(self, other: Checked) -> None:
        self.count(other)
        self.digests.update(other.digests)
        self.executed += other.executed
        self.stored_bytes += other.stored_bytes


def _queries(run_doc: dict[str, Any]) -> int:
    """Queries a cell accounts for: finalised over the network or locally."""
    return run_doc["summary"]["queries"] + run_doc["locally_satisfied"]


def check_batch(
    batch: Batch,
    golden: dict[str, str],
    cold: Batch | None = None,
    read_back: bool = True,
) -> Checked:
    """Verify the outputs of ``batch``; with ``read_back``, cell by cell.

    The whole batch fails if the grid did not execute (or, on a warm
    pass over ``cold``'s store, load) exactly its cells, or a warm pass
    rendered a report other than the cold run's.  With ``read_back`` a
    cell fails if its stored document does not parse back to what the
    report holds, its finalised plus locally satisfied queries do not
    add up to ``max_queries``, an executed cell has no telemetry
    sidecar, or its science digest differs from ``golden`` (which has
    the cell only on the recorded seed).
    """
    from repro.analysis import persistence

    cells = batch.timing.cells
    out = Checked(attempted=cells)
    report, spec = batch.report, batch.spec
    cached = cold is not None
    expected = (0, cells) if cached else (cells, 0)
    if (report.executed, report.cached) != expected or report.quarantined:
        out.fail(
            cells,
            f"executed={report.executed} cached={report.cached} "
            f"quarantined={report.quarantined}, expected executed/cached {expected}",
        )
        return out
    if cached and batch.text != cold.text:
        out.fail(cells, "a warm pass rendered a different report than the cold run")
        return out
    for cell in spec.expand() if read_back else ():
        cell_id = f"{cell.label}|{cell.protocol}|{cell.seed}"
        key = spec.cell_key(cell)
        try:
            raw = batch.store.get_raw(key)
            doc = json.loads(raw)
            run_doc = doc["run"]
            digest = science_digest(run_doc)
            in_memory = persistence.run_to_document(report.runs[cell])
        except (KeyError, ValueError) as error:
            out.fail(1, f"{cell_id}: read-back failed: {error!r}")
            continue
        out.stored_bytes += len(raw.encode("utf-8"))
        out.digests[cell_id] = digest
        if in_memory != run_doc:
            out.fail(1, f"{cell_id}: report differs from the stored document")
        elif _queries(run_doc) != spec.max_queries:
            out.fail(1, f"{cell_id}: {_queries(run_doc)} queries accounted for")
        elif golden.get(cell_id, digest) != digest:
            out.fail(1, f"{cell_id}: science digest differs from golden")
        elif not cached:
            sidecar = batch.store.get_sidecar(key)
            if sidecar is None:
                out.fail(1, f"{cell_id}: no telemetry sidecar")
            else:
                out.executed.append((run_doc, sidecar["telemetry"]))
    return out


def load_golden(workload: Workload, seed: int, scale: str) -> dict[str, str]:
    """Golden digests for this run, or {} when it is not the recorded one."""
    if scale != "full" or seed != DEFAULT_SEED or not GOLDEN_PATH.exists():
        return {}
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden["digests"].get(workload.name, {})


# -- metrics -------------------------------------------------------------------


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def exact_counts(checked: Checked, builds: int) -> dict[str, float]:
    """Per-cell counts from stored documents and telemetry sidecars.

    Same code + same seed ⇒ the same values to the last digit; two runs
    that disagree here are not running the same simulation.
    """
    docs = [doc for doc, _telemetry in checked.executed]
    tele = [telemetry for _doc, telemetry in checked.executed]
    cells = len(docs)

    def total(*path: str) -> float:
        values = 0.0
        for telemetry in tele:
            node: Any = telemetry
            for part in path:
                node = node.get(part, 0) if isinstance(node, dict) else 0
            values += node or 0
        return values

    events = sum(doc["events_processed"] for doc in docs)
    queries = sum(_queries(doc) for doc in docs)
    messages = total("protocol", "messages", "total")
    lookups = total("protocol", "index", "lookups")
    issued = total("protocol", "queries", "issued")
    return {
        "sim.events": _per(events, cells),
        "sim.events_per_query": _per(events, queries),
        "sim.sim_time_s": _per(sum(doc["sim_time_s"] for doc in docs), cells),
        "sim.queue_peak": _per(total("engine", "queue_peak"), cells),
        "overlay.builds": _per(builds, checked.attempted),
        "overlay.messages_total": _per(messages, cells),
        "overlay.messages_per_query": _per(messages, queries),
        "overlay.dropped_dead_share": _per(
            total("protocol", "messages", "dropped_dead_peer"), messages
        ),
        "overlay.churn_leaves": _per(total("protocol", "churn", "leaves"), cells),
        "overlay.churn_rejoins": _per(total("protocol", "churn", "rejoins"), cells),
        "bloom.membership_tests": _per(
            total("protocol", "bloom", "membership_tests"), cells
        ),
        "bloom.updates_sent": _per(
            total("protocol", "messages", "bloom_update"), cells
        ),
        "core.index_lookups": _per(lookups, cells),
        "core.index_hit_share": _per(total("protocol", "index", "hits"), lookups),
        "core.index_inserts": _per(total("protocol", "index", "inserts"), cells),
        "core.index_evictions": _per(total("protocol", "index", "evictions"), cells),
        "protocols.queries_issued": _per(issued, cells),
        "protocols.success_share": _per(
            total("protocol", "queries", "succeeded"), issued
        ),
        "results.store_bytes_per_cell": _per(checked.stored_bytes, checked.attempted),
    }


def phase_seconds(batches: list[Timing], checked: Checked) -> dict[str, float]:
    """Untraced per-cell seconds from the sidecars' phase timers."""
    tele = [telemetry for _doc, telemetry in checked.executed]
    cells = sum(batch.cells for batch in batches)

    def phase(name: str) -> float:
        return sum(t["phases_s"].get(name, 0.0) for t in tele)

    simulate = phase("simulate")
    events = sum(doc["events_processed"] for doc, _telemetry in checked.executed)
    in_run = sum(t["phases_s"].get("total", 0.0) for t in tele)
    wall = sum(batch.wall_s for batch in batches)
    render = sum(batch.render_s for batch in batches)
    return {
        "sim.events_per_s": _per(events, simulate),
        "experiments.instantiate_s": _per(phase("instantiate"), cells),
        "experiments.simulate_s": _per(simulate, cells),
        "experiments.finalize_s": _per(phase("finalize"), cells),
        # Everything GridRunner does around run_protocol: blueprint
        # build/cache, key, claim, document, put, sidecar, release, load.
        "experiments.build_commit_s": _per(wall - render - in_run, cells),
    }


def traced_metrics(
    tracer: LayerTracer, traced: list[Timing], untraced: list[Timing]
) -> dict[str, float]:
    """Per-cell calls and self seconds of the traced pass."""
    cells = sum(batch.cells for batch in traced)
    wall = sum(batch.wall_s for batch in traced)
    metrics = {f"{name}_calls": _per(tracer.calls(name), cells) for name in TRACED_CALLS}
    for span, metric in TRACED_SECONDS.items():
        metrics[metric] = _per(tracer.self_s(span), cells)
    metrics["bloom.push_useful_share"] = _per(
        tracer.useful_encodes, tracer.calls("bloom.encode")
    )
    metrics["trace.other_s"] = _per(wall - tracer.top_level_s, cells)
    metrics["trace.overhead_share"] = (
        _per(wall, sum(batch.wall_s for batch in untraced)) - 1.0
    )
    return metrics


def end_to_end(
    batches: list[Timing], setup_s: float, canary: HostCanary, rss_batches: int
) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Times are reference-host seconds (see ``canary.py``): the seconds
    measured, times the host's speed while they were measured.
    ``peak_rss_mb`` is read after a fixed number of batches, not at the
    end: how many batches fit the time budget varies with the host, and
    the blueprint cache (8 worlds) is still filling at 6000 peers, so an
    end-of-run reading would measure the host's speed in megabytes.
    """
    cells = sum(batch.cells for batch in batches)
    if not canary.rates:
        canary.sample()
    speed = canary.speed()
    return {
        "setup_s": setup_s,
        "cell_s": sum(batch.wall_s for batch in batches) / cells * speed,
        "cell_s_p50": statistics.median(
            b.wall_s / b.cells * (b.speed or speed) for b in batches
        ),
        "cell_cpu_s": sum(batch.cpu_s for batch in batches) / cells * speed,
        "peak_rss_mb": batches[min(rss_batches, len(batches)) - 1].peak_rss_mb,
    }


# -- one workload, in this process -----------------------------------------------


def probe_setup(workload: str, seed: int, scale: str, out_dir: Path) -> float:
    """Median set-up time of ``SETUP_PROBES`` fresh interpreters.

    Each probe is timed from spawn to exit and scaled to reference-host
    seconds by the host speed sampled just before and just after it.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--out-dir", str(out_dir),
        "--setup-only",
    ]
    samples = []
    canary = HostCanary()
    for _ in range(SETUP_PROBES):
        canary.rates.clear()
        canary.sample(3)
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - started
        canary.sample(3)
        samples.append(elapsed * canary.speed())
    return statistics.median(samples)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    out_dir: Path = DEFAULT_OUT,
    probes: bool = True,
) -> dict[str, Any]:
    """Measure one workload; returns the result object plus a detail dict.

    Untraced: batches run until ``seconds`` of timed region have been
    measured (at least the workload's prefix).  Traced: the prefix
    batches run once untraced and once under :class:`LayerTracer`.
    """
    workload = WORKLOADS[name].at_scale(scale)
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = probe_setup(name, seed, scale, out_dir) if probes and not trace else None
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        started = time.perf_counter()
        cold = set_up(workload, seed, tmp)
        if setup_s is None:  # not probed: this process's own set-up, as measured
            setup_s = time.perf_counter() - started
        golden = load_golden(workload, seed, scale)
        checked = Checked()
        if cold is not None:
            checked.count(check_batch(cold, golden))
        prefix = Checked()

        def run_batches(
            root: Path,
            budget_s: float,
            expect: dict[str, str],
            keep: Checked | None,
            canary: HostCanary | None = None,
            tracer: LayerTracer | None = None,
        ) -> list[Timing]:
            """Run and check batches until ``budget_s`` of them are measured.

            Outputs are checked between batches, outside the timed
            region; past the prefix a warm pass is only compared with
            the cold run's report, not read back cell by cell.  ``keep``
            collects the prefix cells' documents for the exact counts.
            """
            timings: list[Timing] = []
            measured = 0.0
            while True:
                index = len(timings)
                in_prefix = index < workload.prefix_batches
                batch = run_batch(
                    workload.spec(workload.batch_seed(seed, index)), root, canary, tracer
                )
                part = check_batch(
                    batch, expect, cold, read_back=in_prefix or not workload.warm
                )
                if in_prefix and keep is not None:
                    keep.merge(part)
                checked.count(part)
                timings.append(batch.timing)
                measured += batch.timing.wall_s
                past_prefix = index + 1 >= workload.prefix_batches
                if past_prefix and measured + batch.timing.wall_s / 2 > budget_s:
                    return timings

        store_root = tmp / "store"
        canary = HostCanary()
        if trace:
            batches = run_batches(store_root, 0.0, golden, prefix)
        else:
            with canary:
                batches = run_batches(store_root, seconds, golden, prefix, canary)
        detail: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "batches": len(batches),
            "cells": sum(batch.cells for batch in batches),
            "batch_wall_s": [batch.wall_s for batch in batches],
            "digests": prefix.digests,
        }
        if trace:
            # The same batches again under the tracer, on a second store
            # (a warm pass re-reads the one store); their digests must
            # equal the untraced ones, which proves the wrappers inert.
            tracer = LayerTracer()
            retraced = Checked()
            forget_blueprints()
            traced = run_batches(
                store_root if workload.warm else tmp / "traced",
                0.0, prefix.digests, retraced, tracer=tracer,
            )
            detail["traced_digests"] = retraced.digests
            tracer.write_spans(out_dir / f"trace-{name}.jsonl")
            metrics = exact_counts(prefix, sum(batch.builds for batch in batches))
            metrics.update(phase_seconds(batches, prefix))
            metrics.update(traced_metrics(tracer, traced, batches))
            detail["layer_self_s"] = tracer.layer_self_s()
            detail["traced_wall_s"] = sum(batch.wall_s for batch in traced)
            detail["span_self_s"] = tracer.total_self_s()
            detail["top_level_s"] = tracer.top_level_s
        else:
            metrics = end_to_end(
                batches, setup_s, canary, max(RSS_BATCHES, workload.prefix_batches)
            )
            detail["canary_samples"] = len(canary.rates)
            detail["host_speed"] = canary.speed()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = contract()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    detail["problems"] = checked.problems[:20]
    return {"result": result, "detail": detail}


# -- every workload, each in a fresh subprocess ------------------------------------


def host_speed() -> float:
    """The host's speed relative to the reference host, over about a second.

    Result files carry it so that ``compare.py`` can say when two of
    them were measured on hosts of different speed.
    """
    canary = HostCanary()
    canary.sample(500)
    return canary.speed()


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_child(
    name: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: Path
) -> dict[str, Any]:
    """One workload in a fresh interpreter; returns its result and detail."""
    detail_path = out_dir / f"detail-{name}-{int(trace)}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--scale", scale, "--out-dir", str(out_dir), "--detail", str(detail_path),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: benchmark child failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    detail_path.unlink()
    return {"result": result, "detail": detail}


def summarise(values: list[float]) -> dict[str, Any]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_all(args: argparse.Namespace) -> int:
    """Orchestrate: rounds x workloads x (untraced, traced), then report."""
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.record_golden:  # only the prefix digests are needed
        args.no_trace, args.seconds = True, 0.0
    traces = [False] if args.no_trace else [False, True]
    speeds = [host_speed()]
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    units: dict[str, str] = {}
    totals = {name: {"attempted": 0, "failed": 0, "problems": []} for name in names}
    details: dict[str, Any] = {}
    for round_index in range(args.rounds):
        for name in names:
            for trace in traces:
                print(
                    f"round {round_index + 1}/{args.rounds}: {name} "
                    f"({'traced' if trace else 'untraced'})", file=sys.stderr,
                )
                child = run_child(name, args.seed, args.seconds, trace, args.scale, out_dir)
                for metric, entry in child["result"]["metrics"].items():
                    samples[name].setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
                totals[name]["attempted"] += child["result"]["attempted"]
                totals[name]["failed"] += child["result"]["failed"]
                totals[name]["problems"] += child["detail"]["problems"]
                details.setdefault(name, {})[trace] = child["detail"]
    speeds.append(host_speed())

    if args.record_golden:
        golden = {
            "seed": args.seed,
            "scale": args.scale,
            "digests": {name: details[name][False]["digests"] for name in names},
        }
        if GOLDEN_PATH.exists() and set(names) != set(WORKLOADS):
            kept = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]
            golden["digests"] = {**kept, **golden["digests"]}
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"recorded {GOLDEN_PATH}", file=sys.stderr)

    document = {
        "provenance": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "rounds": args.rounds,
            "scale": args.scale,
            "seconds": args.seconds,
            "host_speed": statistics.fmean(speeds),
            "host_speed_before_after": speeds,
        },
        "units": units,
        "workloads": {
            name: {
                **totals[name],
                "failed_share": _per(totals[name]["failed"], totals[name]["attempted"]),
                "metrics": {m: summarise(v) for m, v in samples[name].items()},
                "layer_self_s": details[name].get(True, {}).get("layer_self_s", {}),
                "batches": details[name][False]["batches"],
                "cells": details[name][False]["cells"],
            }
            for name in names
        },
    }
    out_path = Path(args.out) if args.out else out_dir / "bench.json"
    out_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    for name in names:
        entry = document["workloads"][name]
        print(f"\n== {name}: {entry['attempted']} cells attempted, "
              f"{entry['failed']} failed ==")
        for metric, summary in entry["metrics"].items():
            print(
                f"{metric:36s} {summary['median']:>16.6g} {units[metric]:<8s} "
                f"[q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}]"
            )
        for problem in entry["problems"]:
            print(f"  FAILED {problem}")
    print(f"\nwrote {out_path}")
    return 1 if any(totals[name]["failed"] for name in names) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this one workload in-process (contract mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out-dir", default=str(DEFAULT_OUT),
                        help="where stores, traces and result files go")
    parser.add_argument("--detail", help="also write this run's detail JSON here")
    parser.add_argument("--setup-only", action="store_true",
                        help="perform the workload's set-up and exit")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="result file (default: <out-dir>/bench.json)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from this run's digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    out_dir = Path(args.out_dir)
    if args.setup_only:
        out_dir.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-setup-", dir=out_dir))
        try:
            set_up(WORKLOADS[args.workload].at_scale(args.scale), args.seed, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, out_dir
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(outcome["detail"]), encoding="utf-8")
    for problem in outcome["detail"]["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
