"""Micro-benchmark of grid resume (``BENCH_grid_resume.json``).

Measures the property the content-addressed result store exists for:
re-running a completed grid executes **zero** cells.  One grid is run
cold (every cell simulated and persisted) and then warm (every cell
loaded from the store); the warm pass must execute nothing and the
wall-clock ratio is the headline number.

The measurements are written to ``BENCH_grid_resume.json`` at the repo
root (under ``REPRO_BENCH_WRITE=1``) so CI and future PRs can track the
resume win over time.

The ``has`` probe (``grid status`` / ``watch``, ``ClaimStore.prune``)
is gated separately: on a freshly opened store, a pass of ``has`` over
every stored cell costs no more than a pass of ``get_raw`` — the read
it stands in for — timed interleaved (``conftest.time_interleaved``),
the median ratio held to 1.0 plus what the ``get_raw`` pass differs
from itself by on this host right now.  A probe is one ``stat`` of a
string-formatted path (≈ 0.33 of a read at PR 23).
"""

import hashlib
import time

from conftest import time_interleaved, write_bench_json

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


#: Stored cells the probe gate reads back, and its interleaved pairs.
PROBE_CELLS = 2000
PROBE_PAIRS = 5


def _probe_documents(count):
    """``(key, document)`` pairs shaped like real grid cells."""
    return [
        (
            hashlib.sha256(f"bench-cell-{index}".encode()).hexdigest(),
            {
                "cell": {"label": "baseline", "protocol": "locaware", "seed": index},
                "max_queries": 200,
                "metrics": {"distance_series": [float(d) for d in range(24)]},
            },
        )
        for index in range(count)
    ]


def test_a_has_pass_costs_no_more_than_a_read_pass(tmp_path, show):
    documents = _probe_documents(PROBE_CELLS)
    root = tmp_path / "store"
    filled = ResultStore(root)
    for key, document in documents:
        filled.put(key, document)

    def has_scan():
        store = ResultStore(root)
        assert sum(1 for key, _ in documents if store.has(key)) == PROBE_CELLS

    def get_scan():
        store = ResultStore(root)
        assert all(store.get_raw(key) for key, _ in documents)

    timing = time_interleaved(get_scan, has_scan, pairs=PROBE_PAIRS)
    show(
        f"has/get_raw time at {PROBE_CELLS} cells over {PROBE_PAIRS} "
        f"interleaved pairs: {timing.ratio:.2f} "
        f"(noise floor {100.0 * timing.noise:.1f}%)"
    )
    # A probe that costs more than the read it stands in for is a
    # regression.
    assert timing.ratio <= 1.0 + timing.noise, (
        f"has pass took {timing.ratio:.2f}x the get_raw pass's time at "
        f"{PROBE_CELLS} cells (limit 1.0 + get-vs-get noise {timing.noise:.2f})"
    )
