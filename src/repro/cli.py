"""Command-line interface for the Locaware reproduction.

Subcommands:

- ``figures`` — run the four-protocol comparison
  (one seed and one scenario of a ``GridRunner``: the topology is
  built once and instantiated per protocol) and print Figures 2-4
  plus the §5.2 claim checks, optionally under a registered scenario
  (``--scenario``); with ``--store DIR`` the cells go through a
  content-addressed result store, so a re-run loads them instead of
  simulating;
- ``ablation`` — run one ablation sweep (a1..a8, ext, ext2) on one or
  more seeds (``--seeds``) and judge its direction claims over them;
- ``grid``     — parameterised experiment grids over a
  content-addressed result store: ``grid run`` executes (and resumes)
  a protocol × scenario(+params) × config-override × seed grid —
  several ``grid run`` processes pointed at one store partition the
  grid dynamically through lease claims (``--runner-id``,
  ``--lease-ttl``) with zero duplicate executions, and each runner
  can fan its claimed cells across ``--workers`` fork processes that
  inherit parent-built blueprints; ``grid status`` prints one
  snapshot of a grid against its store — stored/claimed/pending
  counts, the active claims, per-runner throughput (from the
  telemetry sidecars committed cells leave next to their documents)
  and an ETA — and ``grid watch`` prints that snapshot every
  ``--interval`` seconds until the grid completes;
  ``grid check`` judges the §5.2 claim table per seed on the grid's
  stored cells without executing;
  ``grid report`` aggregates a store from disk, ``grid ls`` lists the
  stored cells; a store is a directory of sharded JSON files
  (``<key[:2]>/<key>.json``), so copying one is ``cp -r``;
- ``trace``    — observability for single cells: ``trace run`` executes
  one cell with JSONL tracing on and prints its telemetry (wall-clock
  phases, events/sec, per-kind event counts); ``trace summarize``
  reports event counts by kind and a per-query hop timeline for any
  trace file;
- ``lint``     — project-aware static analysis: AST rules enforcing
  the determinism, layering, and tracing invariants (``RPR001`` no
  wall clocks in deterministic layers, ``RPR002`` no module-level
  ``random.*``, ``RPR003`` guarded ``tracer.emit``, ``RPR004``
  import-layering DAG, ``RPR005`` no bare set iteration, ``RPR006``
  strict JSON in results/analysis, ``RPR007`` the collector switched
  only in ``sim/gc_pause.py``) over the whole tree by default;
  ``--format text|json``, and ``--explain RPRxxx`` for each rule's
  rationale with an offending/fixed example; exits nonzero on
  findings;
- ``info``     — show the §5.1 configuration and the system inventory,
  one line per registered scenario included.

Examples::

    repro-locaware figures --queries 500 --bucket 100 --store results
    repro-locaware figures --scenario flash-crowd --queries 500
    repro-locaware grid check --store results --queries 500 --bucket 100
    repro-locaware ablation a6
    repro-locaware ablation a5 --seeds 1 2 3 4 5
    repro-locaware grid run --store results --config small \\
        --scenarios baseline churn-storm:storm_session_s=120 \\
        --set ttl=5,7 --seeds 1 2 --queries 200 --workers 4
    repro-locaware grid run --store shared --runner-id worker-2 &
    repro-locaware grid status --store shared --config small --seeds 1 2
    repro-locaware grid check --store results --seeds 1 2 3 --queries 1000
    repro-locaware grid watch --store shared --config small --seeds 1 2
    repro-locaware grid report --store results
    repro-locaware grid ls --store results
    repro-locaware trace run --protocol locaware --config small --out t.jsonl
    repro-locaware trace summarize t.jsonl --query 3
    repro-locaware lint
    repro-locaware lint src/repro/sim --format json
    repro-locaware lint --explain RPR003
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

from .analysis import (
    check_report,
    claim_verdicts,
    comparison_slice,
    render_claim_lines,
    render_figure_chart,
)
from .experiments import (
    BENCH_BUCKET_WIDTH,
    BENCH_MAX_QUERIES,
    DEFAULT_PROTOCOL_ORDER,
    FIGURES,
    PROTOCOL_REGISTRY,
    GridReport,
    GridRunner,
    GridSpec,
    ablations,
    paper_config,
    small_config,
)
from .lint.config import LINTED_PATHS

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-locaware",
        description="Reproduction of Locaware (El Dick & Pacitti, DAMAP/EDBT 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures",
        help="run the four-protocol comparison: Figures 2-4 + claim checks",
    )
    figures.add_argument("--queries", type=int, default=BENCH_MAX_QUERIES)
    figures.add_argument("--bucket", type=int, default=BENCH_BUCKET_WIDTH)
    figures.add_argument("--seed", type=int, default=20090322)
    figures.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory: stored cells are loaded, missing "
        "ones executed and committed (default: run without a store)",
    )
    figures.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help="run the comparison under a registered scenario "
        "(default: the paper's baseline regime)",
    )
    figures.add_argument(
        "--chart", action="store_true", help="also render ASCII line charts"
    )

    ablation = sub.add_parser("ablation", help="run one ablation sweep")
    ablation.add_argument("id", choices=list(ablations.ABLATIONS), help="ablation id")
    ablation.add_argument("--queries", type=int, default=400)
    ablation.add_argument("--seeds", type=int, nargs="+", default=[20090322])

    grid = sub.add_parser(
        "grid",
        help="parameterised experiment grids over a content-addressed "
        "result store (resumable)",
    )
    grid_sub = grid.add_subparsers(dest="grid_command", required=True)

    grid_run = grid_sub.add_parser(
        "run",
        help="execute a grid, skipping cells the store already holds; "
        "several runs on one store partition the grid via lease claims",
    )
    _add_grid_axis_options(grid_run)
    grid_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for this runner's claimed batches: "
        "blueprints are built once in the parent and inherited "
        "copy-on-write by a persistent fork pool, while claims and "
        "commits stay in the parent — results are byte-identical to "
        "--workers 1, and N runner processes × M workers each still "
        "partition one store exactly",
    )
    grid_run.add_argument(
        "--runner-id",
        metavar="ID",
        default=None,
        help="identity stamped into this runner's claim files "
        "(default: host-pid-nonce); letters, digits, '.', '_', '-'",
    )
    grid_run.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="claim lease TTL: a runner silent this long is presumed "
        "dead and its claims may be reclaimed (default: 300)",
    )

    grid_status = grid_sub.add_parser(
        "status",
        help="one snapshot of a grid against a store: stored/claimed/"
        "pending counts, the active claims, per-runner throughput from "
        "telemetry sidecars, and an ETA",
    )
    _add_grid_axis_options(grid_status)

    grid_check = grid_sub.add_parser(
        "check", help="judge the claim table per seed on a stored grid"
    )
    _add_grid_axis_options(grid_check)

    grid_watch = grid_sub.add_parser(
        "watch",
        help="the grid status snapshot, printed every --interval "
        "seconds until the grid completes",
    )
    _add_grid_axis_options(grid_watch)
    grid_watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="polling interval (default: 2)",
    )

    grid_report = grid_sub.add_parser(
        "report", help="aggregate a result store incrementally from disk"
    )
    grid_report.add_argument("--store", metavar="DIR", default="results")

    grid_ls = grid_sub.add_parser("ls", help="list the stored cells")
    grid_ls.add_argument("--store", metavar="DIR", default="results")

    trace = sub.add_parser(
        "trace",
        help="run one traced cell / summarize a JSONL trace file",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run",
        help="execute one cell with JSONL tracing on and print its "
        "telemetry and per-kind event counts",
    )
    trace_run.add_argument(
        "--protocol",
        choices=list(PROTOCOL_REGISTRY),
        default="locaware",
    )
    trace_run.add_argument(
        "--scenario",
        metavar="NAME[:K=V,...]",
        default="baseline",
        help="scenario, with optional parameter overrides after a colon",
    )
    trace_run.add_argument(
        "--config",
        choices=("paper", "small"),
        default="small",
        help="base configuration preset (default: small — tracing is "
        "for inspecting behaviour, not paper-scale statistics)",
    )
    trace_run.add_argument("--seed", type=int, default=20090322)
    trace_run.add_argument("--queries", type=int, default=200)
    trace_run.add_argument("--bucket", type=int, default=None)
    trace_run.add_argument(
        "--out",
        metavar="FILE",
        default="trace.jsonl",
        help="JSONL trace output path (default: trace.jsonl)",
    )
    trace_run.add_argument(
        "--kinds",
        nargs="+",
        default=None,
        metavar="KIND",
        help="only emit these event kinds (e.g. query.issue query.hit); "
        "default: all kinds",
    )

    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="event counts by kind plus a per-query hop timeline",
    )
    trace_summarize.add_argument("file", metavar="FILE")
    trace_summarize.add_argument(
        "--query",
        type=int,
        default=None,
        metavar="QID",
        help="which query's timeline to render (default: the first "
        "traced query)",
    )

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis: determinism, layering, "
        "and tracing invariants (exits nonzero on findings)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        default=None,
        help="files or directories to lint "
        f"(default: {' '.join(LINTED_PATHS)})",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings as human-readable text (default) or one JSON "
        "document (for CI artifacts)",
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print one rule's rationale and a minimal offending/fixed "
        "example, then exit (no linting)",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    sub.add_parser("info", help="show the paper configuration")
    return parser


def _add_axis_options(parser: argparse.ArgumentParser) -> None:
    """The grid-axis flags of ``grid run|status|check|watch``."""
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(DEFAULT_PROTOCOL_ORDER),
        metavar="NAME",
        help=f"protocol axis (default: {' '.join(DEFAULT_PROTOCOL_ORDER)}; "
        f"registered: {' '.join(PROTOCOL_REGISTRY)})",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=["baseline"],
        metavar="NAME[:K=V,...]",
        help="scenario axis; parameter overrides attach after a colon, "
        "e.g. churn-storm:storm_session_s=120 (default: baseline)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[20090322],
        help="master seeds, one full grid slice per seed",
    )
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--bucket", type=int, default=None)
    parser.add_argument(
        "--config",
        choices=("paper", "small"),
        default="paper",
        help="base configuration preset (small = 60-peer test system)",
    )


def _add_grid_axis_options(parser: argparse.ArgumentParser) -> None:
    """The store + grid-axis flags shared by ``grid run``, ``grid
    status``, ``grid watch`` and ``grid check`` (status and check must
    describe exactly the grid run executes)."""
    parser.add_argument(
        "--store",
        metavar="DIR",
        default="results",
        help="result-store directory (default: results)",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="JSON grid spec (GridSpec.to_dict format); overrides the "
        "axis flags below",
    )
    _add_axis_options(parser)
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=V1[,V2,...]",
        help="config-override axis: one axis per flag, cartesian "
        "product across flags (e.g. --set ttl=5,7 --set bloom_bits=600)",
    )


def _cmd_figures(args: argparse.Namespace, out) -> int:
    """The paper's four protocols on one seed and one scenario, through
    the result store at ``--store`` if given: stored cells load,
    missing ones execute and commit."""
    from .results import ResultStore

    started = time.time()
    try:
        spec = GridSpec(
            base_config=paper_config(),
            scenarios=(args.scenario or "baseline",),
            seeds=(args.seed,),
            max_queries=args.queries,
            bucket_width=args.bucket,
        )
        store = ResultStore(args.store) if args.store is not None else None
        report = GridRunner(spec, store=store).run(
            progress=lambda m: print(
                f"  [{time.time() - started:6.1f}s] {m}", file=out, flush=True
            )
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    print(f"  done in {time.time() - started:.1f}s\n", file=out)
    result = comparison_slice(report)
    for module in FIGURES:
        print(module.render(result), file=out)
        print(file=out)
        if args.chart:
            chart = render_figure_chart(
                result.bucket_edges(),
                module.figure_series(result),
                title=module.TITLE,
                y_label=module.Y_LABEL,
            )
            print(chart, file=out)
            print(file=out)
    return 0 if _print_verdicts(report, out) else 1


def _print_verdicts(report, out) -> bool:
    """The claim table's verdicts per row label; whether all hold."""
    verdicts = check_report(report)
    for i, (row, row_verdicts) in enumerate(verdicts.items()):
        if len(verdicts) > 1:
            print(f"\n== {row} ==" if i else f"== {row} ==", file=out)
        if row.partition(" @ ")[0] != "baseline":
            print(
                f"note: this run used scenario {row!r}; the §5.2 claim "
                "checks target the baseline regime",
                file=out,
            )
        print(render_claim_lines(row_verdicts), file=out)
    return all(v.holds for row_verdicts in verdicts.values() for v in row_verdicts)


def _cmd_ablation(args: argparse.Namespace, out) -> int:
    entry = ablations.ABLATIONS[args.id]
    several = len(args.seeds) > 1
    per_seed = {}
    try:
        if len(set(args.seeds)) != len(args.seeds):
            raise ValueError(f"duplicate entries on the seed axis: {args.seeds}")
        for seed in args.seeds:
            result = ablations.run_ablation(
                entry, paper_config(seed=seed), args.queries
            )
            table = f"seed {seed}\n{result.render()}\n" if several else result.render()
            print(table, file=out)
            per_seed[seed] = entry.check(result)
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    verdicts = claim_verdicts(per_seed)
    print(render_claim_lines(verdicts), file=out)
    return 0 if all(verdict.holds for verdict in verdicts) else 1


def _parse_override_axes(entries):
    """``--set FIELD=V1[,V2,...]`` flags → the config-override axis."""
    import itertools

    from .experiments.grid import parse_scalar

    axes = []
    fields = []
    for entry in entries:
        name, separator, raw = entry.partition("=")
        name = name.strip()
        if not separator or not name or not raw:
            raise ValueError(
                f"--set expects FIELD=VALUE[,VALUE...], got {entry!r}"
            )
        if name in fields:
            raise ValueError(f"--set names field {name!r} more than once")
        fields.append(name)
        axis = []
        for value in raw.split(","):
            try:
                axis.append((name, parse_scalar(value)))
            except ValueError as error:
                # Non-finite constants (NaN, Infinity, 1e999) are
                # rejected eagerly, with the config-override axis named.
                raise ValueError(
                    f"--set {name} (config-override axis): {error}"
                ) from None
        axes.append(axis)
    if not axes:
        return [{}]
    return [dict(combination) for combination in itertools.product(*axes)]


def _grid_spec_from_args(args: argparse.Namespace) -> GridSpec:
    if args.spec:
        import json

        with open(args.spec, encoding="utf-8") as handle:
            return GridSpec.from_dict(json.load(handle))
    base = small_config() if args.config == "small" else paper_config()
    return GridSpec(
        base_config=base,
        protocols=args.protocols,
        scenarios=args.scenarios,
        config_overrides=_parse_override_axes(args.overrides),
        seeds=args.seeds,
        max_queries=args.queries,
        bucket_width=args.bucket,
    )


def _cmd_grid_run(args: argparse.Namespace, out) -> int:
    from .analysis import render_sweep_report
    from .results import DEFAULT_LEASE_TTL_S, ResultStore
    from .sim.errors import ConfigurationError

    lease_ttl = (
        args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL_S
    )
    try:
        spec = _grid_spec_from_args(args)
        runner = GridRunner(
            spec,
            workers=args.workers,
            store=ResultStore(args.store),
            runner_id=args.runner_id,
            lease_ttl_s=lease_ttl,
        )
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    print(
        f"  runner: {runner.runner_id} "
        f"(lease TTL {lease_ttl:g}s, workers {args.workers})",
        file=out,
        flush=True,
    )
    started = time.time()
    try:
        report = runner.run(
            progress=lambda m: print(
                f"  [{time.time() - started:6.1f}s] {m}", file=out, flush=True
            )
        )
    except (ValueError, KeyError, OSError) as error:
        # Run-time store failures — --store pointing at a regular
        # file, a full disk — are operator errors, not tracebacks.
        print(f"error: {error}", file=out)
        return 2
    quarantined = (
        f" quarantined={report.quarantined}" if report.quarantined else ""
    )
    print(
        f"  cells: total={report.num_cells} executed={report.executed} "
        f"cached={report.cached}{quarantined} in {time.time() - started:.1f}s",
        file=out,
    )
    print(f"  store: {args.store}\n", file=out)
    print(render_sweep_report(report), file=out)
    return 0


#: Throughput and the ETA read only the telemetry sidecars committed
#: within this many seconds, so they reflect the runners working now,
#: not the whole history of the store.
_THROUGHPUT_WINDOW_S = 300.0


def _grid_snapshot(store, claims, keys, name, now):
    """The progress of the grid whose cell keys are ``keys`` in
    ``store``, as printable lines, and whether the grid is complete.

    Throughput comes from the telemetry sidecars committed cells leave
    next to their documents, over the seconds the commits inside the
    window span: ten commits in the last ten seconds read one cell a
    second, however long the window.
    """
    stored = [key for key in sorted(keys) if store.has(key)]
    stored_set = set(stored)
    every_claim = list(claims.claims())
    # A cell both stored and claimed (crash between commit and
    # release) counts as stored — the claim is a prunable orphan, not
    # outstanding work — so pending can never go negative.
    claimed = [
        claim
        for claim in every_claim
        if claim.key in keys and claim.key not in stored_set
    ]
    pending = len(keys) - len(stored) - len(claimed)
    done = len(stored) == len(keys)

    width = 30
    filled = (width * len(stored)) // len(keys) if keys else width
    bar = "#" * filled + "." * (width - filled)
    share = len(stored) / len(keys) if keys else 1.0
    lines = [
        f"-- {time.strftime('%H:%M:%S', time.localtime(now))}  store {name}",
        f"store {name}: {len(store)} cell(s) stored, "
        f"{len(every_claim)} active claim(s)",
        f"grid: total={len(keys)} stored={len(stored)} "
        f"claimed={len(claimed)} pending={pending}",
        f"  [{bar}] {share:6.1%}",
    ]
    if claimed:
        lines.append("claims:")
        for claim in claimed:
            state = "stale" if claim.is_stale(now) else "live"
            lines.append(
                f"  {claim.key[:12]}  {claim.runner_id}  "
                f"workers {claim.workers}  "
                f"age {claim.age_s(now):6.1f}s  "
                f"heartbeat {claim.silence_s(now):5.1f}s ago  {state}"
            )

    window_s = _THROUGHPUT_WINDOW_S
    recent = {}
    oldest = now
    for key in stored:
        sidecar = store.get_sidecar(key)
        if sidecar is None:
            continue
        completed = sidecar.get("completed_unix")
        if not isinstance(completed, (int, float)):
            continue
        if completed < now - window_s or completed > now + window_s:
            continue
        oldest = min(oldest, completed)
        runner = str(sidecar.get("runner_id") or "unknown")
        stats = recent.setdefault(runner, {"cells": 0, "simulate_s": 0.0})
        stats["cells"] += 1
        phases = (sidecar.get("telemetry") or {}).get("phases_s") or {}
        simulate = phases.get("simulate")
        if isinstance(simulate, (int, float)):
            stats["simulate_s"] += simulate
    if recent:
        lines.append(f"runners (cells committed in the last {window_s:g}s):")
        for runner in sorted(recent):
            stats = recent[runner]
            mean_sim = stats["simulate_s"] / stats["cells"]
            lines.append(
                f"  {runner:<28} {stats['cells']:4d} cell(s)  "
                f"mean simulate {mean_sim:6.2f}s"
            )

    if done:
        lines.append("grid complete")
    else:
        # At least a second, so a commit stamped this instant (or
        # ahead of this clock) cannot read as an unbounded rate.
        span_s = min(window_s, max(now - oldest, 1.0))
        rate = sum(stats["cells"] for stats in recent.values()) / span_s
        remaining = len(keys) - len(stored)
        if rate > 0:
            lines.append(
                f"throughput {rate * 60.0:.1f} cells/min  "
                f"ETA ~{remaining / rate:.0f}s for {remaining} cell(s)"
            )
        else:
            lines.append(
                f"throughput: no telemetry sidecars committed in the "
                f"last {window_s:g}s; {remaining} cell(s) remaining"
            )
    return "\n".join(lines), done


def _print_snapshots(args: argparse.Namespace, out, interval_s=None) -> int:
    """Print the grid's snapshot once, or every ``interval_s`` seconds
    until the grid is complete or nobody reads the output any more."""
    from .results import ClaimStore, ResultStore
    from .sim.errors import ConfigurationError

    try:
        spec = _grid_spec_from_args(args)
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    if os.path.exists(args.store) and not os.path.isdir(args.store):
        print(f"error: store {args.store} is not a directory", file=out)
        return 2
    store = ResultStore(args.store)
    claims = ClaimStore(store.root)
    keys = {spec.cell_key(cell) for cell in spec.expand()}
    while True:
        snapshot, done = _grid_snapshot(store, claims, keys, args.store, time.time())
        print(snapshot, file=out, flush=True)
        if done or interval_s is None or out.reader_gone:
            return 0
        print(file=out)
        time.sleep(interval_s)


def _cmd_grid_status(args: argparse.Namespace, out) -> int:
    """One snapshot of the grid against the store."""
    return _print_snapshots(args, out)


def _cmd_grid_watch(args: argparse.Namespace, out) -> int:
    """The snapshot every ``--interval`` seconds until the grid completes."""
    if args.interval <= 0:
        print("error: --interval must be positive", file=out)
        return 2
    return _print_snapshots(args, out, args.interval)


def _stored_report(args: argparse.Namespace, out) -> GridReport:
    """The grid of the axis flags, read from its stored cells without
    executing any; missing or corrupt cells are a counted error, and
    each corrupt one is named as it is quarantined."""
    from .analysis import read_grid_cell
    from .results import CorruptResultError, ResultStore

    spec = _grid_spec_from_args(args)
    store = ResultStore(args.store)
    report = GridReport(spec=spec)
    cells = spec.expand()
    for cell in cells:
        try:
            report.runs[cell] = read_grid_cell(store, spec.cell_key(cell)).run
        except KeyError:
            pass  # counted as missing below
        except CorruptResultError as error:
            print(f"  note: skipped corrupt cell: {error}", file=out)
    missing = len(cells) - len(report.runs)
    if missing:
        raise ValueError(
            f"{missing} of {len(cells)} cell(s) of the grid are missing or "
            f"corrupt in store {args.store}; run `grid run` with the same "
            "options first"
        )
    return report


def _cmd_grid_check(args: argparse.Namespace, out) -> int:
    """The claim table's verdicts per seed on a stored grid."""
    from .sim.errors import ConfigurationError

    try:
        return 0 if _print_verdicts(_stored_report(args, out), out) else 1
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2


def _iter_store_cells(store, out):
    """Stream ``(key, StoredCell)`` for every cell in ``store``.

    Corrupt or malformed documents are quarantined by the reader and
    skipped with a note; cells mid-commit by another runner simply do
    not appear yet (atomic put means a document is either whole or
    absent).  Yields nothing for a missing store directory.
    """
    from .analysis import read_grid_cell
    from .results import CorruptResultError

    for key in store.keys():
        try:
            yield key, read_grid_cell(store, key)
        except CorruptResultError as error:
            print(f"  note: skipped corrupt cell: {error}", file=out)
        except KeyError:
            # Deleted (or quarantined) between listing and reading.
            continue


def _in_flight_note(store, out) -> None:
    """One line about claims other runners currently hold, if any."""
    from .results import ClaimStore

    in_flight = sum(1 for _ in ClaimStore(store.root).claims())
    if in_flight:
        print(
            f"  note: {in_flight} cell(s) in flight (claimed by active "
            "runners); re-run once they commit",
            file=out,
        )


def _no_cells_message(store, args, out) -> None:
    if store.root.exists() and not store.root.is_dir():
        suffix = " (not a directory)"
    elif not store.root.is_dir():
        suffix = " (store directory does not exist)"
    elif (store.root / "store.sqlite").is_file():
        # Left by the SQLite backend, which is gone: name it rather
        # than report an empty store, and say how to get the cells back.
        suffix = (
            " (its store.sqlite was written by the removed SQLite backend; "
            "cells are deterministic, so `grid run` with the same options "
            "rebuilds them as JSON)"
        )
    else:
        suffix = ""
    print(f"no cells stored under {args.store}{suffix}", file=out)


def _cmd_grid_report(args: argparse.Namespace, out) -> int:
    from .analysis import SweepAggregator, render_sweep_rows
    from .results import ResultStore

    store = ResultStore(args.store)
    aggregator = SweepAggregator()
    cells = 0
    try:
        for _key, cell in _iter_store_cells(store, out):
            aggregator.add(cell.label, cell.protocol, cell.run)
            cells += 1
    except OSError as error:
        print(f"error: unreadable store document: {error}", file=out)
        return 2
    _in_flight_note(store, out)
    if not cells:
        _no_cells_message(store, args, out)
        return 1
    print(
        render_sweep_rows(
            aggregator.rows(),
            heading=f"Result store {args.store}: {cells} cells, "
            f"{len(aggregator)} rows",
        ),
        file=out,
    )
    return 0


def _cmd_grid_ls(args: argparse.Namespace, out) -> int:
    from .analysis.tables import format_table
    from .results import ResultStore

    store = ResultStore(args.store)
    rows = []
    try:
        for key, cell in _iter_store_cells(store, out):
            rows.append(
                [key[:12], cell.label, cell.protocol, cell.seed, cell.max_queries]
            )
    except OSError as error:
        print(f"error: unreadable store document: {error}", file=out)
        return 2
    if not rows:
        _no_cells_message(store, args, out)
        return 1
    rows.sort(key=lambda row: (row[1], row[2], row[3]))
    print(
        format_table(
            ["key", "scenario", "protocol", "seed", "queries"],
            rows,
            title=f"Result store {args.store}: {len(rows)} cells",
        ),
        file=out,
    )
    return 0


def _cmd_grid(args: argparse.Namespace, out) -> int:
    return {
        "run": _cmd_grid_run,
        "status": _cmd_grid_status,
        "check": _cmd_grid_check,
        "watch": _cmd_grid_watch,
        "report": _cmd_grid_report,
        "ls": _cmd_grid_ls,
    }[args.grid_command](args, out)


def _cmd_trace_run(args: argparse.Namespace, out) -> int:
    """Execute one cell with JSONL tracing on; print its telemetry."""
    from .analysis.traces import read_trace, render_trace_summary, summarize_trace
    from .experiments import ScenarioSpec, check_run_bounds, run_protocol
    from .sim.errors import ConfigurationError
    from .sim.tracing import JsonlTracer

    base = (
        small_config(seed=args.seed)
        if args.config == "small"
        else paper_config(seed=args.seed)
    )
    try:
        spec = ScenarioSpec.parse(args.scenario)
        scenario = spec.make()
        bucket_width = (
            args.bucket if args.bucket is not None else max(1, args.queries // 8)
        )
        check_run_bounds(args.queries, bucket_width)
        with JsonlTracer(args.out, kinds=args.kinds) as tracer:
            run = run_protocol(
                base,
                args.protocol,
                max_queries=args.queries,
                bucket_width=bucket_width,
                tracer=tracer,
                scenario=scenario,
            )
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    telemetry = run.telemetry.to_dict() if run.telemetry is not None else {}
    print(
        f"traced {args.protocol} x {spec.label} "
        f"(config {args.config}, seed {args.seed}, {args.queries} queries)",
        file=out,
    )
    tracing = telemetry.get("tracing", {})
    print(f"  trace: {tracing.get('events_written', 0)} event(s) -> {args.out}",
          file=out)
    phases = telemetry.get("phases_s", {})
    for name in ("build", "instantiate", "simulate", "finalize"):
        if name in phases:
            print(f"  {name:<12} {phases[name]:8.3f}s", file=out)
    engine = telemetry.get("engine", {})
    events_per_s = engine.get("events_per_s")
    rate = (
        f"{events_per_s:,.0f} events/s"
        if isinstance(events_per_s, (int, float))
        else "n/a"
    )
    print(
        f"  engine: {engine.get('events_processed', 0)} event(s) "
        f"({rate}), queue peak {engine.get('queue_peak', 0)}",
        file=out,
    )
    print(file=out)
    print(render_trace_summary(summarize_trace(read_trace(args.out))), file=out)
    return 0


def _cmd_trace_summarize(args: argparse.Namespace, out) -> int:
    """Event counts by kind + one query's hop timeline for a trace file."""
    from .analysis.traces import (
        TraceParseError,
        read_trace,
        render_query_timeline,
        render_trace_summary,
        summarize_trace,
    )

    try:
        events = read_trace(args.file)
    except (OSError, TraceParseError) as error:
        print(f"error: {error}", file=out)
        return 2
    if not events:
        print(f"no events in {args.file}", file=out)
        return 1
    summary = summarize_trace(events)
    print(render_trace_summary(summary), file=out)
    print(file=out)
    print(render_query_timeline(summary, qid=args.query), file=out)
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    return {
        "run": _cmd_trace_run,
        "summarize": _cmd_trace_summarize,
    }[args.trace_command](args, out)


def _cmd_lint(args: argparse.Namespace, out) -> int:
    """Run the project lint pass (or --explain / --rules)."""
    from .lint import (
        LintConfig,
        explain_rule,
        lint_paths,
        render_json,
        render_text,
        rule_catalog,
    )

    if args.rules:
        print(rule_catalog(), file=out)
        return 0
    if args.explain is not None:
        try:
            print(explain_rule(args.explain), file=out)
        except ValueError as error:
            print(f"error: {error}", file=out)
            return 2
        return 0
    try:
        findings, checked = lint_paths(
            args.paths or LINTED_PATHS, LintConfig.load()
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    if args.format == "json":
        print(render_json(findings, checked), file=out)
    else:
        print(render_text(findings, checked), file=out)
    return 1 if findings else 0


def _cmd_info(args: argparse.Namespace, out) -> int:
    config = paper_config()
    print("Paper configuration (§5.1):", file=out)
    for key, value in sorted(config.to_dict().items()):
        print(f"  {key:<24} {value}", file=out)
    from .scenarios import SCENARIO_REGISTRY, scenario_names

    print("\nProtocols:", ", ".join(PROTOCOL_REGISTRY), file=out)
    print("Ablations:", ", ".join(ablations.ABLATIONS), file=out)
    print("Scenarios:", file=out)
    for name in scenario_names():
        print(f"  {name:<18} {SCENARIO_REGISTRY[name].description}", file=out)
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "ablation": _cmd_ablation,
    "grid": _cmd_grid,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "info": _cmd_info,
}


class _Output:
    """The stream every command prints to.

    Once the reader has closed the pipe (``grid ls … | head -1``), the
    stream is pointed at ``os.devnull``, as the Python docs advise for
    a closed stdout: the rest of the output is dropped and the command
    runs on to its end — ``grid run`` to its last cell — instead of
    dying with a ``BrokenPipeError``.  ``reader_gone`` then reads True,
    which ends ``grid watch``.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self.reader_gone = False

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._drop()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._drop()

    def _drop(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)
        self.reader_gone = True


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = _Output(out if out is not None else sys.stdout)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    finally:
        out.flush()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
