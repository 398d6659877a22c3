#!/usr/bin/env python3
"""Alternating parent/head pairs of benchmark workloads, with the verdicts.

``python3 tools/bench_pairs.py PARENT_TREE HEAD_TREE --workload W[,W2,…]
--pairs N [--first-seed S] [--seconds 15] [--scale full|smoke] [--trace]``

Each tree is a checkout (``git clone`` / ``git archive`` of a commit, or
the working tree).  Pair ``i`` runs seed ``S + i`` once on each side,
through the tree's own contract command (``BENCHMARK.json`` ``command``
+ ``--workload W --seed … --seconds … --trace 0|1``, run from the tree's
root so each side measures its own ``src/``), and the side that goes
first alternates from pair to pair.  For every metric the contract
declares (the end-to-end metrics, or the per-layer ones with
``--trace``) it prints the per-pair values, each side's median and
quartiles and the pairs head won, then ``failed``/``attempted`` per side
and the verdict of the choosing-metrics guide, section 8:

``claim``     at least ``MIN_PAIRS`` pairs were run, head won at least
              nine tenths of them (a tie counts for neither side), the
              medians differ by more than the distance between the
              parent's own quartiles, and head failed no larger a share
              of its cells than the parent
``no claim``  anything else

Next to it, for every metric the head tree's ``BENCHMARK.json`` gives a
``bound`` (the end-to-end ones), the guard of section 6:

``within bound``  head's median is not worse than the parent's by more
                  than the bound
``WORSE``         it is

``--workload`` takes a comma-separated list, each workload run and
reported in turn, so the workloads a change must not slow are checked
by the command that checks the one it claims.

Exact counts (every per-layer metric whose unit is not read from a
clock) are compared pair by pair instead: ``same`` or ``MOVED``.

Stand-alone on purpose: standard library only, nothing imported from
``bench/``, and the children are sent to a temporary ``--out-dir``, so
nothing is written into either tree.  Exits 2 on a usage error, 1 if a
child fails to run, 0 otherwise — the verdict is printed, not returned.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

#: Fewer pairs than this show the absence of a gain at most (guide §8).
MIN_PAIRS = 10
#: Share of all pairs run that head must win; ties count for neither side.
WIN_SHARE = 0.9
#: Units read from a host clock or the host's memory; a per-layer metric
#: in any other unit is an exact count of the deterministic simulation.
TIMED_UNITS = {"s", "1/s", "ratio", "MB"}


def contract(tree: Path) -> dict[str, Any]:
    """The tree's ``BENCHMARK.json``."""
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, scale: str, trace: bool,
    out_dir: Path,
) -> dict[str, Any]:
    """One contract run of ``tree``; returns the JSON object it printed."""
    command = [
        *contract(tree)["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", scale,
        "--out-dir", str(out_dir),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} (in {tree}) failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the way ``bench/run.py`` summarises rounds."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: list[float], head: list[float], better: str,
    parent_failed_share: float, head_failed_share: float,
) -> tuple[str, str]:
    """(``claim`` | ``no claim``, the numbers behind it) for one metric."""
    sign = -1.0 if better == "higher" else 1.0
    won = sum(sign * h < sign * p for p, h in zip(parent, head))
    lost = sum(sign * h > sign * p for p, h in zip(parent, head))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - quartiles(head)[1])
    why = (
        f"head won {won}/{len(parent)} pairs (lost {lost}); medians differ by "
        f"{gap:+.6g} against a parent quartile distance of {q3 - q1:.6g}"
    )
    claim = (
        len(parent) >= MIN_PAIRS
        and won >= WIN_SHARE * len(parent)
        and gap > q3 - q1
        and head_failed_share <= parent_failed_share
    )
    return ("claim" if claim else "no claim"), why


def guard(
    parent: list[float], head: list[float], better: str, bound: float
) -> tuple[str, str]:
    """(``within bound`` | ``WORSE``, the numbers behind it) for one metric."""
    sign = -1.0 if better == "higher" else 1.0
    parent_median, head_median = quartiles(parent)[1], quartiles(head)[1]
    if parent_median:
        worse_by = sign * (head_median - parent_median) / abs(parent_median)
    else:
        worse_by = 0.0 if head_median == parent_median else float("inf")
    why = (
        f"head's median is {abs(worse_by):.1%} "
        f"{'worse' if worse_by > 0 else 'better'} than the parent's "
        f"{parent_median:.6g} (may be {bound:.0%} worse)"
    )
    return ("WORSE" if worse_by > bound else "within bound"), why


def report(
    metrics: list[dict[str, Any]], seeds: list[int], first: list[str],
    runs: dict[str, list[dict[str, Any]]],
) -> None:
    """Print every metric's pairs, summaries and verdicts."""
    shares = {}
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        shares[side] = failed / attempted if attempted else 1.0
        print(f"{side}: failed {failed} / attempted {attempted} cells")
    for metric in metrics:
        name, unit, better = metric["name"], metric["unit"], metric["better"]
        values = {
            side: [r["metrics"][name]["value"] for r in results]
            for side, results in runs.items()
        }
        parent, head = values["parent"], values["head"]
        if unit not in TIMED_UNITS:
            moved = [seed for seed, p, h in zip(seeds, parent, head) if p != h]
            state = f"MOVED on seeds {moved}" if moved else "same"
            print(f"{name} [{unit}, exact]: {state}; parent {parent} head {head}")
            continue
        print(f"\n{name} [{unit}, {better} is better]")
        print(
            f"  {'seed':>6} {'first':>6} {'parent':>12} {'head':>12} "
            f"{'head/parent':>11}"
        )
        for seed, side, p, h in zip(seeds, first, parent, head):
            ratio = f"{h / p:11.3f}" if p else f"{'-':>11}"
            print(f"  {seed:>6} {side:>6} {p:12.6g} {h:12.6g} {ratio}")
        for side in ("parent", "head"):
            q1, median, q3 = quartiles(values[side])
            print(f"  {side:>6}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}")
        decision, why = verdict(parent, head, better, shares["parent"], shares["head"])
        print(f"  {why}")
        print(f"  verdict: {decision}")
        if "bound" in metric:
            word, why = guard(parent, head, better, metric["bound"])
            print(f"  {why}")
            print(f"  guard: {word}")


def workload_names(text: str, declared: dict[str, Any]) -> list[str]:
    """``--workload``'s comma-separated names; ValueError on an unknown one."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    known = [w["name"] for w in declared["workloads"]]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise ValueError(f"unknown workload(s) {unknown or text!r}; known: {known}")
    return list(dict.fromkeys(names))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("head_tree", type=Path)
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds a run measures (default: the head tree's "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs instead")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "head": args.head_tree.resolve()}
    for side, tree in trees.items():
        if not (tree / "BENCHMARK.json").is_file():
            parser.error(f"{side} tree {tree} has no BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = contract(trees["head"])
    try:
        workloads = workload_names(args.workload, declared)
    except ValueError as error:
        parser.error(str(error))
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    seeds = [args.first_seed + pair for pair in range(args.pairs)]
    first = ["parent" if pair % 2 == 0 else "head" for pair in range(args.pairs)]
    for side, tree in trees.items():
        print(f"{side}: {tree}")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for workload in workloads:
            runs: dict[str, list[dict[str, Any]]] = {"parent": [], "head": []}
            print(f"\n{workload}: {args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
                  f"{seconds:g} s a run, scale {args.scale}, "
                  f"{'traced' if args.trace else 'untraced'}")
            for seed, leader in zip(seeds, first):
                for side in (leader, "head" if leader == "parent" else "parent"):
                    print(f"{workload} seed {seed}: {side}", file=sys.stderr)
                    try:
                        result = run_once(
                            trees[side], workload, seed, seconds, args.scale,
                            args.trace, Path(tmp) / side,
                        )
                    except RuntimeError as error:
                        print(f"error: {error}", file=sys.stderr)
                        return 1
                    runs[side].append(result)
            report(metrics, seeds, first, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
