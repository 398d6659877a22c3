"""Micro-benchmark of grid resume (``BENCH_grid_resume.json``).

Measures the property the content-addressed result store exists for:
re-running a completed grid executes **zero** cells.  One grid is run
cold (every cell simulated and persisted) and then warm (every cell
loaded from the store); the warm pass must execute nothing and the
wall-clock ratio is the headline number.

The measurements are written to ``BENCH_grid_resume.json`` at the repo
root (under ``REPRO_BENCH_WRITE=1``) so CI and future PRs can track the
resume win over time.
"""

import time

from conftest import write_bench_json

from repro.experiments import GridRunner, GridSpec, small_config
from repro.results import ResultStore

#: Enough queries per cell that the cold pass does real simulation
#: work; the warm pass only reads JSON whatever the horizon.
QUERIES = 120

PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
SCENARIOS = ("baseline", "flash-crowd:spike_probability=0.9")
SEEDS = (1, 2)


def _spec():
    return GridSpec(
        base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
        protocols=PROTOCOLS,
        scenarios=SCENARIOS,
        seeds=SEEDS,
        max_queries=QUERIES,
    )


def test_perf_grid_resume(tmp_path, show):
    store = ResultStore(tmp_path / "store")

    started = time.perf_counter()
    cold = GridRunner(_spec(), store=store).run()
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = GridRunner(_spec(), store=store).run()
    warm_s = time.perf_counter() - started

    cells = cold.num_cells
    assert cold.executed == cells and cold.cached == 0
    # The acceptance criterion: an identical completed grid executes
    # zero cells.
    assert warm.executed == 0 and warm.cached == cells

    # Resume after losing one cell: exactly one execution.
    spec = _spec()
    store.delete(spec.cell_key(spec.expand()[0]))
    started = time.perf_counter()
    resumed = GridRunner(spec, store=store).run()
    resume_one_s = time.perf_counter() - started
    assert resumed.executed == 1 and resumed.cached == cells - 1

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    payload = {
        "grid": {
            "protocols": list(PROTOCOLS),
            "scenarios": list(SCENARIOS),
            "seeds": list(SEEDS),
            "max_queries": QUERIES,
            "cells": cells,
        },
        "cold": {"wall_s": cold_s, "executed": cold.executed},
        "warm": {"wall_s": warm_s, "executed": warm.executed, "cached": warm.cached},
        "resume_one_cell": {
            "wall_s": resume_one_s,
            "executed": resumed.executed,
        },
        "speedup": speedup,
    }
    written = write_bench_json("grid_resume", payload)

    show(
        "BENCH grid_resume (content-addressed result store)\n"
        f"  grid: {cells} cells × {QUERIES} queries\n"
        f"  cold {cold_s:7.3f} s ({cold.executed} executed)   "
        f"warm {warm_s:7.3f} s (0 executed, {warm.cached} cached)   "
        f"-> {speedup:.0f}x\n"
        f"  resume after deleting 1 cell: {resume_one_s:.3f} s "
        f"(1 executed)\n"
        f"  {written}"
    )

    # The warm pass does strictly less work (JSON reads vs simulation);
    # parity would mean the cache is broken.  A tight bound would flake
    # on a loaded CI machine, so only the ordering is hard-asserted.
    assert speedup > 1.0, (
        f"warm grid was not faster than cold ({speedup:.2f}x)"
    )
