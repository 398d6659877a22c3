#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of the
same code), ``B`` the candidate.  For every workload x end-to-end
metric it prints both medians, the ratio ``B/A`` with its base, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric (times
are reference-host seconds, see ``canary.py``):

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``better``      every round of B beats every round of A (at least
                ``MIN_ROUNDS`` a side), and the medians differ by more
                than A's own quartile distance
``unresolved``  the run-to-run spread (quartile distance / median, the
                wider of the two sides) exceeds the bound, so the medians
                cannot be told apart — unless every round of one side
                beats every round of the other

Exact-count metrics must be identical when both files come from the
same git revision, seed and scale (the simulation is deterministic);
across revisions the differing counts are listed.  Exits non-zero on any
``worse``, any failed cell, or a count mismatch within one revision.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Units of metrics read from a host clock (or the host's memory);
#: every other per-layer metric is an exact count of the simulation.
TIMED_UNITS = {"s", "1/s", "ratio", "MB"}
DRIFT_WARNING = 0.10
#: Fewer rounds than this a side cannot show a gain, only the absence
#: of a regression (two rounds that happen to sort are not evidence).
MIN_ROUNDS = 5


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> tuple[str, float]:
    """(verdict, share by which B's median is worse than A's)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    a_vals = [sign * v for v in a["values"]]
    b_vals = [sign * v for v in b["values"]]
    b_wins = max(b_vals) < min(a_vals)
    a_wins = max(a_vals) < min(b_vals)
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound and not (a_wins or b_wins):
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    enough = min(len(a_vals), len(b_vals)) >= MIN_ROUNDS
    if enough and b_wins and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better", worse_by
    return "ok", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_prov, b_prov = a_doc["provenance"], b_doc["provenance"]
    for side, path, prov in (("A", argv[0], a_prov), ("B", argv[1], b_prov)):
        print(f"{side}: {path}  rev {prov['git_rev'][:12]}  rounds {prov['rounds']}  "
              f"host speed {prov['host_speed']:.3f}")
    drift = b_prov["host_speed"] / a_prov["host_speed"] - 1.0
    if abs(drift) > DRIFT_WARNING:
        print(f"WARNING: host drift: B's host ran {drift:+.1%} against A's "
              f"(base {a_prov['host_speed']:.3f} of the reference host); times are "
              "scaled by the canary, but that corrects a slower minute, not a "
              "different machine")
    same_inputs = all(a_prov[k] == b_prov[k] for k in ("seed", "scale"))
    same_code = same_inputs and a_prov["git_rev"] == b_prov["git_rev"] != "unknown"

    status = 0
    for name in (w["name"] for w in contract["workloads"]):
        a_w, b_w = a_doc["workloads"].get(name), b_doc["workloads"].get(name)
        if a_w is None or b_w is None:
            continue
        print(f"\n== {name} ==")
        for side, entry in (("A", a_w), ("B", b_w)):
            if entry["failed"]:
                status = 1
                print(f"  {side}: {entry['failed']} of {entry['attempted']} cells FAILED")
        for metric in contract["end_to_end"]:
            a, b = a_w["metrics"].get(metric["name"]), b_w["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            word, worse_by = verdict(a, b, metric["better"], metric["bound"])
            status |= word == "worse"
            print(
                f"  {metric['name']:16s} A {a['median']:<12.6g} B {b['median']:<12.6g} "
                f"{metric['unit']:<4s} B/A {b['median'] / a['median']:.3f} "
                f"(base {a['median']:.6g}; worse by {worse_by:+.1%}, "
                f"bound {metric['bound']:.0%}, {metric['better']} is better)  {word}"
            )
        if not same_inputs:
            continue
        differing = []
        for metric in contract["per_layer"]:
            if metric["unit"] in TIMED_UNITS:
                continue
            a, b = a_w["metrics"].get(metric["name"]), b_w["metrics"].get(metric["name"])
            # Every round of both files must have read the same value.
            if a is not None and b is not None and len({*a["values"], *b["values"]}) > 1:
                differing.append(f"{metric['name']}: {a['median']:.6g} -> {b['median']:.6g}")
        if differing and same_code:
            status = 1
            print("  exact counts DIFFER within one revision (non-determinism):")
        elif differing:
            print("  exact counts that differ between the revisions:")
        else:
            print("  exact counts: identical")
        for line in differing:
            print(f"    {line}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
