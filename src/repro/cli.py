"""Command-line interface for the Locaware reproduction.

Subcommands:

- ``figures`` (alias ``compare``) — run the four-protocol comparison
  (one seed and one scenario of a ``GridRunner``: the topology is
  built once and instantiated per protocol) and print Figures 2-4
  plus the §5.2 claim checks, optionally under a registered scenario
  (``--scenario``); with ``--store DIR`` the cells go through a
  content-addressed result store, so a re-run loads them instead of
  simulating;
- ``ablation`` — run one ablation sweep (a1..a8, ext, ext2) on one or
  more seeds (``--seeds``) and judge its direction claims over them;
- ``report``   — emit the markdown paper-vs-measured report (the same
  grid as ``figures``, resumed from ``--store DIR`` when given);
- ``grid``     — parameterised experiment grids over a
  content-addressed result store: ``grid run`` executes (and resumes)
  a protocol × scenario(+params) × config-override × seed grid —
  several ``grid run`` processes pointed at one store partition the
  grid dynamically through lease claims (``--runner-id``,
  ``--lease-ttl``) with zero duplicate executions, and each runner
  can fan its claimed cells across ``--workers`` fork processes that
  inherit parent-built blueprints; ``grid status``
  shows stored/claimed/pending counts and the active claims;
  ``grid check`` judges the §5.2 claim table per seed on the grid's
  stored cells without executing;
  ``grid watch`` is the live view — it polls the store and claims,
  rendering stored/claimed/pending, per-runner throughput (from the
  telemetry sidecars committed cells leave next to their documents),
  and an ETA, while concurrent ``grid run`` processes fill the store;
  ``grid run --profile DIR`` dumps per-batch cProfile artifacts;
  ``grid report`` aggregates a store from disk, ``grid ls`` lists the
  stored cells; every store-touching ``grid`` subcommand takes
  ``--backend {auto,json,sqlite}`` to pick between the sharded-JSON
  file layout and a single WAL-mode SQLite database (one fsync per
  committed batch; ``auto`` detects an existing SQLite store), and
  ``grid migrate SRC DST`` copies a store across backends
  byte-identically;
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
  strict JSON in results/analysis); ``--format text|json``,
  ``--select``/``--ignore`` to narrow the rule set, and
  ``--explain RPRxxx`` for each rule's rationale with an
  offending/fixed example; exits nonzero on findings;
- ``info``     — show the §5.1 configuration and the system inventory,
  one line per registered scenario included.

Examples::

    repro-locaware figures --queries 500 --bucket 100 --store results
    repro-locaware compare --scenario flash-crowd --queries 500
    repro-locaware grid check --store results --queries 500 --bucket 100
    repro-locaware report --queries 500 --bucket 100 --store results > measured.md
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
    repro-locaware grid run --store bigstore --backend sqlite --seeds 1 2
    repro-locaware grid migrate results results-sqlite
    repro-locaware trace run --protocol locaware --config small --out t.jsonl
    repro-locaware trace summarize t.jsonl --query 3
    repro-locaware lint src tests benchmarks
    repro-locaware lint --format json --select RPR003 RPR004
    repro-locaware lint --explain RPR003
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from .analysis import (
    check_report,
    claim_verdicts,
    claims_report,
    comparison_report,
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
        aliases=["compare"],
        help="run the four-protocol comparison: Figures 2-4 + claim checks",
    )
    _add_run_options(figures)
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

    report = sub.add_parser("report", help="emit the markdown measured report")
    _add_run_options(report)

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
    grid_run.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="dump a cProfile .pstats file per executed batch into DIR "
        "(with --workers > 1 the profile covers the coordinating "
        "parent only)",
    )

    grid_status = grid_sub.add_parser(
        "status",
        help="stored/claimed/pending counts for a grid against a store, "
        "plus the active claims",
    )
    _add_grid_axis_options(grid_status)

    grid_check = grid_sub.add_parser(
        "check", help="judge the claim table per seed on a stored grid"
    )
    _add_grid_axis_options(grid_check)

    grid_watch = grid_sub.add_parser(
        "watch",
        help="live progress view of a grid: polls the store and claims, "
        "showing stored/claimed/pending, per-runner throughput from "
        "telemetry sidecars, and an ETA",
    )
    _add_grid_axis_options(grid_watch)
    grid_watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="polling interval (default: 2)",
    )
    grid_watch.add_argument(
        "--once",
        action="store_true",
        help="print a single snapshot and exit (for scripts and CI)",
    )
    grid_watch.add_argument(
        "--window",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="throughput window: rates and the ETA use only cells "
        "whose telemetry sidecar was committed within this many "
        "seconds (default: 300)",
    )

    grid_report = grid_sub.add_parser(
        "report", help="aggregate a result store incrementally from disk"
    )
    grid_report.add_argument("--store", metavar="DIR", default="results")
    _add_backend_option(grid_report)

    grid_ls = grid_sub.add_parser("ls", help="list the stored cells")
    grid_ls.add_argument("--store", metavar="DIR", default="results")
    _add_backend_option(grid_ls)

    grid_migrate = grid_sub.add_parser(
        "migrate",
        help="copy a result store to another backend byte-identically "
        "(documents and telemetry sidecars; active claims stay behind)",
    )
    grid_migrate.add_argument("src", metavar="SRC", help="source store")
    grid_migrate.add_argument("dst", metavar="DST", help="destination store")
    grid_migrate.add_argument(
        "--from-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="source backend (default: auto-detect)",
    )
    grid_migrate.add_argument(
        "--to-backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="destination backend (default: the opposite of the source)",
    )

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
        "(default: src tests benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings as human-readable text (default) or one JSON "
        "document (for CI artifacts)",
    )
    lint.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="CODE",
        help="only run these rule codes (e.g. RPR003 RPR004)",
    )
    lint.add_argument(
        "--ignore",
        nargs="+",
        default=None,
        metavar="CODE",
        help="skip these rule codes",
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


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The comparison flags ``figures`` and ``report`` share."""
    parser.add_argument("--queries", type=int, default=BENCH_MAX_QUERIES)
    parser.add_argument("--bucket", type=int, default=BENCH_BUCKET_WIDTH)
    parser.add_argument("--seed", type=int, default=20090322)
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory: stored cells are loaded, missing "
        "ones executed and committed (default: run without a store)",
    )


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


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    """The ``--backend`` flag shared by every store-touching command."""
    parser.add_argument(
        "--backend",
        choices=("auto", "json", "sqlite"),
        default="auto",
        help="result-store backend: sharded JSON files or one WAL-mode "
        "SQLite database; 'auto' (default) detects an existing SQLite "
        "store by its store.sqlite file and otherwise uses json",
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
    _add_backend_option(parser)
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


def _comparison_spec(args: argparse.Namespace) -> GridSpec:
    """The paper's four protocols on one seed and one scenario."""
    return GridSpec(
        base_config=paper_config(),
        scenarios=(getattr(args, "scenario", None) or "baseline",),
        seeds=(args.seed,),
        max_queries=args.queries,
        bucket_width=args.bucket,
    )


def _run_grid(spec: GridSpec, out, store: str | None) -> GridReport:
    """Run ``spec``, through the result store at ``store`` if given:
    stored cells load, missing ones execute and commit."""
    from .results import ResultStore

    runner = GridRunner(
        spec, store=ResultStore(store) if store is not None else None
    )
    started = time.time()
    report = runner.run(
        progress=lambda m: print(
            f"  [{time.time() - started:6.1f}s] {m}", file=out, flush=True
        )
    )
    print(f"  done in {time.time() - started:.1f}s\n", file=out)
    return report


def _cmd_figures(args: argparse.Namespace, out) -> int:
    try:
        report = _run_grid(_comparison_spec(args), out, args.store)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
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


def _cmd_report(args: argparse.Namespace, out) -> int:
    try:
        report = _run_grid(_comparison_spec(args), out, args.store)
        result = comparison_slice(report)
        text = (
            f"{comparison_report(result)}\n\n### Claim checks\n\n"
            f"{claims_report(result)}"
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    print(text, file=out)
    return 0


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
            store=ResultStore(args.store, backend=args.backend),
            runner_id=args.runner_id,
            lease_ttl_s=lease_ttl,
            profile_dir=args.profile,
        )
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    print(
        f"  runner: {runner.runner_id} "
        f"(lease TTL {lease_ttl:g}s, workers {args.workers})",
        file=out,
    )
    if args.profile:
        print(f"  profiling: per-batch .pstats into {args.profile}", file=out)
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
    print(f"  store: {args.store} [{runner.store.backend_name}]\n", file=out)
    print(render_sweep_report(report), file=out)
    return 0


def _cmd_grid_status(args: argparse.Namespace, out) -> int:
    """Stored/claimed/pending counts for one grid, plus claim health."""
    from .results import ClaimStore, ResultStore
    from .sim.errors import ConfigurationError

    try:
        spec = _grid_spec_from_args(args)
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    store = ResultStore(args.store, backend=args.backend)
    # Share the store's backend so a SQLite store's claim rows are
    # visible here — constructing a fresh file-layout ClaimStore
    # against a row-backed store would silently report zero claims.
    claims = ClaimStore(store.root, backend=store.backend)
    keys = {spec.cell_key(cell) for cell in spec.expand()}
    stored = sum(1 for key in keys if store.has(key))
    # A cell both stored and claimed (crash between commit and
    # release) counts as stored — the claim is a prunable orphan, not
    # outstanding work — so pending can never go negative.
    claimed = {
        claim.key: claim
        for claim in claims.claims()
        if claim.key in keys and not store.has(claim.key)
    }
    pending = len(keys) - stored - len(claimed)
    print(
        f"store {args.store}: {len(store)} cell(s) stored, "
        f"{sum(1 for _ in claims.claims())} active claim(s)",
        file=out,
    )
    print(
        f"grid: total={len(keys)} stored={stored} claimed={len(claimed)} "
        f"pending={pending}",
        file=out,
    )
    if claimed:
        now = time.time()
        print("claims:", file=out)
        for key in sorted(claimed):
            claim = claimed[key]
            state = "stale" if claim.is_stale(now) else "live"
            print(
                f"  {key[:12]}  {claim.runner_id}  "
                f"workers {claim.workers}  "
                f"age {claim.age_s(now):6.1f}s  "
                f"heartbeat {claim.silence_s(now):5.1f}s ago  {state}",
                file=out,
            )
    return 0


def _watch_snapshot(store, claims, keys, window_s, now):
    """One ``grid watch`` poll: progress lines and whether the grid is done.

    Throughput comes from the telemetry sidecars committed cells leave
    next to their documents — only sidecars stamped within the window
    count, so the rate (and the ETA derived from it) reflects current
    runners, not the whole history of the store.
    """
    stored = [key for key in sorted(keys) if store.has(key)]
    stored_set = set(stored)
    claimed = [
        claim
        for claim in claims.claims()
        if claim.key in keys and claim.key not in stored_set
    ]
    pending = len(keys) - len(stored) - len(claimed)
    done = len(stored) == len(keys)

    width = 30
    filled = (width * len(stored)) // len(keys) if keys else width
    bar = "#" * filled + "." * (width - filled)
    share = len(stored) / len(keys) if keys else 1.0
    lines = [
        f"grid: total={len(keys)} stored={len(stored)} "
        f"claimed={len(claimed)} pending={pending}",
        f"  [{bar}] {share:6.1%}",
    ]

    # Per-runner throughput from recent sidecars.
    recent = {}
    for key in stored:
        sidecar = store.get_sidecar(key)
        if sidecar is None:
            continue
        completed = sidecar.get("completed_unix")
        if not isinstance(completed, (int, float)):
            continue
        if completed < now - window_s or completed > now + window_s:
            continue
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
        rate = sum(stats["cells"] for stats in recent.values()) / window_s
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


def _stored_report(args: argparse.Namespace) -> GridReport:
    """The grid of the axis flags, read from its stored cells without
    executing any; missing or unrestorable cells are a counted error."""
    from .analysis import load_grid_cell_document
    from .results import CorruptResultError, ResultStore

    spec = _grid_spec_from_args(args)
    store = ResultStore(args.store, backend=args.backend)
    report = GridReport(spec=spec)
    cells = spec.expand()
    for cell in cells:
        key = spec.cell_key(cell)
        try:
            report.runs[cell] = load_grid_cell_document(store.get(key))
        except (KeyError, TypeError, ValueError, CorruptResultError):
            pass  # counted as missing below
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
        return 0 if _print_verdicts(_stored_report(args), out) else 1
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2


def _cmd_grid_watch(args: argparse.Namespace, out) -> int:
    """Poll the store + claims until the grid completes (or --once)."""
    from .results import ClaimStore, ResultStore
    from .sim.errors import ConfigurationError

    if args.interval <= 0:
        print("error: --interval must be positive", file=out)
        return 2
    if args.window <= 0:
        print("error: --window must be positive", file=out)
        return 2
    try:
        spec = _grid_spec_from_args(args)
    except (ValueError, ConfigurationError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    store = ResultStore(args.store, backend=args.backend)
    claims = ClaimStore(store.root, backend=store.backend)
    keys = {spec.cell_key(cell) for cell in spec.expand()}
    while True:
        now = time.time()
        snapshot, done = _watch_snapshot(store, claims, keys, args.window, now)
        stamp = time.strftime("%H:%M:%S", time.localtime(now))
        print(f"-- {stamp}  store {args.store}", file=out)
        print(snapshot, file=out)
        if hasattr(out, "flush"):
            out.flush()
        if done or args.once:
            return 0
        print(file=out)
        time.sleep(args.interval)


def _iter_store_cells(store, extract, out):
    """Stream ``(key, extract(document))`` pairs, tolerating damage.

    Corrupt documents — whether they fail to *parse* (the store
    quarantines those itself) or parse but fail ``extract`` (valid
    JSON of the wrong shape, which is quarantined here) — are skipped
    with a note; cells mid-commit by another runner simply do not
    appear yet (atomic put means a document is either whole or
    absent).  Yields nothing for a missing store directory.
    """
    from .results import CorruptResultError

    for key in store.keys():
        try:
            document = store.get(key)
        except CorruptResultError as error:
            print(f"  note: skipped corrupt cell: {error}", file=out)
            continue
        except KeyError:
            # Deleted (or quarantined) between listing and reading.
            continue
        try:
            yield key, extract(document)
        except (ValueError, KeyError, TypeError):
            store.quarantine(key)
            print(
                f"  note: skipped corrupt cell: malformed grid-cell "
                f"document for key {key[:12]}…; quarantined",
                file=out,
            )


def _in_flight_note(store, out) -> None:
    """One line about claims other runners currently hold, if any."""
    from .results import ClaimStore

    in_flight = sum(
        1 for _ in ClaimStore(store.root, backend=store.backend).claims()
    )
    if in_flight:
        print(
            f"  note: {in_flight} cell(s) in flight (claimed by active "
            "runners); re-run once they commit",
            file=out,
        )


def _no_cells_message(store, args, out) -> None:
    suffix = "" if store.root.is_dir() else " (store directory does not exist)"
    print(f"no cells stored under {args.store}{suffix}", file=out)


def _cmd_grid_report(args: argparse.Namespace, out) -> int:
    from .analysis import SweepAggregator, render_sweep_rows
    from .analysis.persistence import load_grid_cell_document
    from .results import ResultStore

    store = ResultStore(args.store, backend=args.backend)
    aggregator = SweepAggregator()
    cells = 0

    def extract(document):
        return (
            document["cell"]["label"],
            document["cell"]["protocol"],
            load_grid_cell_document(document),
        )

    try:
        for _key, (label, protocol, run) in _iter_store_cells(
            store, extract, out
        ):
            aggregator.add(label, protocol, run)
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

    store = ResultStore(args.store, backend=args.backend)
    rows = []

    def extract(document):
        cell = document["cell"]
        return [
            cell["label"],
            cell["protocol"],
            cell["seed"],
            document["max_queries"],
        ]

    try:
        for key, fields in _iter_store_cells(store, extract, out):
            rows.append([key[:12], *fields])
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


def _cmd_grid_migrate(args: argparse.Namespace, out) -> int:
    """Copy a result store across backends, byte-identically.

    Documents and telemetry sidecars cross as their raw serialized
    text (the exact bytes the json backend keeps on disk), so the
    destination answers every read identically to the source — the
    copy is verified key by key before reporting success.  Claims are
    transient runner state and are *not* migrated; migrating a store
    with active claims gets a warning, not a refusal.
    """
    from pathlib import Path

    from .results import ClaimStore, ResultStore

    if Path(args.src).resolve() == Path(args.dst).resolve():
        print("error: SRC and DST must be different directories", file=out)
        return 2
    try:
        src = ResultStore(args.src, backend=args.from_backend)
        to_backend = args.to_backend
        if to_backend == "auto" and not Path(args.dst).exists():
            # The natural migration is a conversion: default the
            # destination to the backend the source is not.
            to_backend = "json" if src.backend_name == "sqlite" else "sqlite"
        dst = ResultStore(args.dst, backend=to_backend)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    print(
        f"migrate: {args.src} [{src.backend_name}] -> "
        f"{args.dst} [{dst.backend_name}]",
        file=out,
    )
    try:
        keys = list(src.keys())
        if not keys:
            _no_cells_message(src, argparse.Namespace(store=args.src), out)
            return 1
        sidecars = 0
        with dst.batch():
            for key in keys:
                dst.put_raw(key, src.get_raw(key))
                raw_sidecar = src.get_sidecar_raw(key)
                if raw_sidecar is not None:
                    dst.put_sidecar_raw(key, raw_sidecar)
                    sidecars += 1
        mismatched = [
            key
            for key in keys
            if dst.get_raw(key) != src.get_raw(key)
            or dst.get_sidecar_raw(key) != src.get_sidecar_raw(key)
        ]
        if mismatched:
            print(
                f"error: {len(mismatched)} migrated cell(s) differ from "
                f"the source (first: {mismatched[0][:12]}…)",
                file=out,
            )
            return 2
        in_flight = sum(
            1 for _ in ClaimStore(src.root, backend=src.backend).claims()
        )
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=out)
        return 2
    if in_flight:
        print(
            f"  warning: {in_flight} active claim(s) on the source were "
            "not migrated; runners writing to SRC will not see DST",
            file=out,
        )
    print(
        f"  migrated {len(keys)} cell(s) and {sidecars} sidecar(s); "
        "all documents byte-identical",
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
        "migrate": _cmd_grid_migrate,
    }[args.grid_command](args, out)


def _cmd_trace_run(args: argparse.Namespace, out) -> int:
    """Execute one cell with JSONL tracing on; print its telemetry."""
    from .analysis.traces import read_trace, render_trace_summary, summarize_trace
    from .experiments import ScenarioSpec, run_protocol
    from .sim.errors import ConfigurationError

    base = (
        small_config(seed=args.seed)
        if args.config == "small"
        else paper_config(seed=args.seed)
    )
    try:
        spec = ScenarioSpec.parse(args.scenario)
        scenario = spec.make()
        run = run_protocol(
            base,
            args.protocol,
            max_queries=args.queries,
            bucket_width=(
                args.bucket if args.bucket is not None else max(1, args.queries // 8)
            ),
            scenario=scenario,
            trace_path=args.out,
            trace_kinds=args.kinds,
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
    config = LintConfig.load()
    paths = args.paths or ["src", "tests", "benchmarks"]
    try:
        findings, checked = lint_paths(
            paths, config, select=args.select, ignore=args.ignore
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
    "compare": _cmd_figures,
    "ablation": _cmd_ablation,
    "report": _cmd_report,
    "grid": _cmd_grid,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "info": _cmd_info,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
