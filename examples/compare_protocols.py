#!/usr/bin/env python3
"""Reproduce the paper's evaluation: Figures 2, 3, and 4.

Runs Flooding, Dicas, Dicas-Keys, and Locaware on the identical
workload — one seed and one scenario of a storeless grid — and prints
the three figure series plus the §5.2 claim table's checks (the same
lines ``repro figures`` prints); exits 1 if any claim fails.

Run (paper scale, ~1 minute):
    python examples/compare_protocols.py

Quick look (small system, seconds):
    python examples/compare_protocols.py --peers 100 --queries 300

Full §5.1 scale with a custom horizon:
    python examples/compare_protocols.py --queries 2000 --bucket 250
"""

import argparse
import sys
import time

from repro.analysis import (
    check_report,
    comparison_slice,
    format_table,
    render_claim_lines,
)
from repro.experiments import FIGURES, GridRunner, GridSpec, paper_config
from repro.sim import SimulationConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=1000, help="overlay size")
    parser.add_argument("--queries", type=int, default=1500, help="query horizon")
    parser.add_argument("--bucket", type=int, default=250, help="figure bucket width")
    parser.add_argument("--seed", type=int, default=20090322, help="master seed")
    return parser.parse_args()


def scaled_config(peers: int, seed: int) -> SimulationConfig:
    """The §5.1 configuration, optionally shrunk proportionally."""
    base = paper_config(seed=seed)
    if peers == base.num_peers:
        return base
    scale = peers / base.num_peers
    return base.replace(
        num_peers=peers,
        num_files=max(10, int(base.num_files * scale)),
        keyword_pool_size=max(30, int(base.keyword_pool_size * scale)),
        # Keep the system-wide query rate comparable so virtual time
        # stays in the same ballpark.
        query_rate_per_peer=base.query_rate_per_peer / scale,
    )


def main() -> None:
    args = parse_args()
    config = scaled_config(args.peers, args.seed)
    started = time.time()
    spec = GridSpec(
        base_config=config,
        seeds=(args.seed,),
        max_queries=args.queries,
        bucket_width=args.bucket,
    )
    report = GridRunner(spec).run(
        progress=lambda message: print(f"  [{time.time() - started:6.1f}s] {message}",
                                       flush=True),
    )
    result = comparison_slice(report)
    print(f"\ncompleted in {time.time() - started:.1f}s wall "
          f"({config.num_peers} peers, {args.queries} queries/protocol)\n")

    for module in FIGURES:
        print(module.render(result))
        print()

    rows = [
        [
            name,
            run.summary.success_rate,
            run.summary.mean_messages,
            run.summary.mean_download_distance_ms,
            run.locally_satisfied,
        ]
        for name, run in result.runs.items()
    ]
    print(format_table(
        ["protocol", "success", "msgs/query", "distance_ms", "local hits"],
        rows,
        title="Whole-run summary",
    ))
    print()

    (verdicts,) = check_report(report).values()
    print(render_claim_lines(verdicts))
    sys.exit(0 if all(verdict.holds for verdict in verdicts) else 1)


if __name__ == "__main__":
    main()
