"""Wall-clock gate on concurrent grid runners.

Measures the property the claim layer exists for: two independent
runner *processes* pointed at one shared store partition a cold grid
dynamically — zero duplicate executions — and finish faster than one
runner doing every cell alone.  The same cold grid is run from scratch
by a single runner and by two concurrent runners, in interleaved
rounds; the execution tallies of every round are hard-asserted, and
the median wall-clock ratio is gated against the spread of the
single-runner rounds.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest
from conftest import time_interleaved

from repro.experiments import GridRunner, GridSpec, small_config
from repro.results import ResultStore

#: Enough queries per cell that execution dominates claim-file I/O
#: (the claim protocol's overhead is a handful of stats per cell) and
#: the two-runner split wins clearly on a multi-core machine.
QUERIES = 400

PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
SCENARIOS = ("baseline", "flash-crowd:spike_probability=0.9")
SEEDS = (1, 2)

#: Two-runner rounds, each timed between two one-runner rounds.
PAIRS = 5

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="two-process benchmark relies on the fork start method",
)


def _spec():
    return GridSpec(
        base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
        protocols=PROTOCOLS,
        scenarios=SCENARIOS,
        seeds=SEEDS,
        max_queries=QUERIES,
    )


def _runner_process(store_dir, runner_id, out_path):
    report = GridRunner(
        _spec(),
        store=ResultStore(store_dir),
        runner_id=runner_id,
        poll_interval_s=0.05,
    ).run()
    Path(out_path).write_text(
        json.dumps({"executed": report.executed, "cached": report.cached})
    )


def test_perf_concurrent_grid(tmp_path, show):
    cells = _spec().num_cells
    context = multiprocessing.get_context("fork")
    solo_reports = []
    pair_rounds = []

    def run_solo():
        # Reference: one runner executes the whole cold grid.
        store = ResultStore(tmp_path / f"solo-{len(solo_reports)}")
        solo_reports.append(GridRunner(_spec(), store=store).run())

    def run_pair():
        # Two runner processes share one cold store.
        round_dir = tmp_path / f"pair-{len(pair_rounds)}"
        round_dir.mkdir()
        outs = [round_dir / "runner-a.json", round_dir / "runner-b.json"]
        processes = [
            context.Process(
                target=_runner_process,
                args=(round_dir / "shared", f"runner-{tag}", out),
            )
            for tag, out in zip("ab", outs)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=600)
        pair_rounds.append((round_dir / "shared", outs, processes))

    timing = time_interleaved(run_solo, run_pair, pairs=PAIRS)

    assert all(report.executed == cells for report in solo_reports)
    executed_per_round = []
    for shared, outs, processes in pair_rounds:
        assert all(process.exitcode == 0 for process in processes)
        tallies = [json.loads(out.read_text()) for out in outs]
        executed = [tally["executed"] for tally in tallies]
        # The partition contract: every cell executed exactly once overall.
        assert sum(executed) == cells, f"duplicate/missing executions: {tallies}"
        assert len(ResultStore(shared)) == cells
        # Both runners did real work — a 16/0 split would mean the claim
        # loop degenerated to one runner pre-claiming the world.
        assert min(executed) > 0, f"one runner starved: {tallies}"
        executed_per_round.append(executed)

    speedup = 1.0 / timing.ratio
    show(
        "two runners vs one (lease-claimed shared store)\n"
        f"  grid: {cells} cells × {QUERIES} queries, "
        f"{PAIRS} interleaved pairs\n"
        f"  1 runner  {min(timing.baseline_s):7.3f} s best "
        f"({cells} executed, spread {100 * timing.noise:.1f}%)\n"
        f"  2 runners {min(timing.candidate_s):7.3f} s best "
        f"(splits {executed_per_round}, 0 duplicates)   "
        f"-> median {speedup:.2f}x"
    )

    # On a multi-core box two runners must beat one.  Only the ordering
    # is asserted, only where a second core actually exists, and against
    # the noise floor: two runners may not be slower than one by more
    # than one-runner rounds differ among themselves.
    if (os.cpu_count() or 1) >= 2:
        assert timing.ratio < 1.0 + timing.noise, (
            f"two concurrent runners were not faster than one "
            f"(median {speedup:.2f}x, one-runner spread "
            f"{100 * timing.noise:.1f}%)"
        )
