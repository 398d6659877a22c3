"""Micro-benchmark of claim-aware parallel grids (``BENCH_parallel_grid.json``).

Measures the tentpole of the ``--workers`` path: one ``GridRunner``
fanning its claimed batches across a persistent ``fork`` pool whose
workers inherit **parent-built blueprints** copy-on-write, versus the
retired alternative of an ephemeral pool whose every task rebuilds the
immutable world inside a worker.  Two properties are hard-asserted:

- the parent performs exactly **one** topology build per distinct
  fingerprint in the grid (never one per task) — the workers inherit
  those worlds at fork time and build nothing;
- on a machine with at least two CPUs, the shared-substrate runner is
  faster than the per-task-rebuild pool on the same cold grid.

The measurements are written to ``BENCH_parallel_grid.json`` at the
repo root (under ``REPRO_BENCH_WRITE=1``) so CI and future PRs can track
the shared-substrate win over time.
"""

import multiprocessing
import os
import time

import pytest
from conftest import write_bench_json

from repro.experiments import GridRunner, GridSpec, execute_cells, small_config
from repro.experiments.grid import _BLUEPRINT_CACHE
from repro.overlay.blueprint import build_count
from repro.results import ResultStore

#: Query horizon per cell: short on purpose — the bench isolates world
#: construction, which the per-task path pays once per cell and the
#: shared-substrate path once per distinct fingerprint.
QUERIES = 10

PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
SEEDS = (1, 2, 3, 4)

WORKERS = 2

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork-shared blueprint benchmark relies on the fork start method",
)


def _router_config(seed=3):
    """A 60-peer system with the paper's full catalog on the router
    (Waxman shortest-path) substrate — the configuration whose world
    build dominates a short cell, so per-task rebuilds hurt most."""
    return small_config(seed=seed).replace(
        latency_model="router",
        query_rate_per_peer=0.02,
        num_files=3000,
        keyword_pool_size=9000,
    )


def _spec():
    return GridSpec(
        base_config=_router_config(),
        protocols=PROTOCOLS,
        scenarios=("baseline",),
        seeds=SEEDS,
        max_queries=QUERIES,
    )


def test_perf_parallel_grid(tmp_path, show):
    spec = _spec()
    cells = spec.expand()
    distinct = {
        spec.cell_build_config(cell).topology_fingerprint() for cell in cells
    }
    assert len(distinct) < len(cells)  # several tasks per fingerprint

    # Retired path: an ephemeral pool where every task rebuilds the
    # world from scratch inside a worker.
    started = time.perf_counter()
    per_task = list(
        execute_cells(spec, cells, workers=WORKERS, reuse_builds=False)
    )
    per_task_s = time.perf_counter() - started
    assert len(per_task) == len(cells)

    # Tentpole path: claim-aware GridRunner on a cold store; blueprints
    # prebuilt in the parent, inherited copy-on-write by a persistent
    # fork pool, commits kept in the parent.
    _BLUEPRINT_CACHE.clear()
    try:
        builds_before = build_count()
        started = time.perf_counter()
        report = GridRunner(
            spec, workers=WORKERS, store=ResultStore(tmp_path / "store")
        ).run()
        shared_s = time.perf_counter() - started
        parent_builds = build_count() - builds_before
    finally:
        _BLUEPRINT_CACHE.clear()

    assert report.executed == len(cells)
    # One build per distinct topology fingerprint, in the parent — not
    # one per task, and none duplicated inside the workers.
    assert parent_builds == len(distinct), (
        f"expected {len(distinct)} parent builds (one per fingerprint), "
        f"measured {parent_builds}"
    )

    speedup = per_task_s / shared_s if shared_s > 0 else float("inf")

    payload = {
        "grid": {
            "protocols": list(PROTOCOLS),
            "scenarios": ["baseline"],
            "seeds": list(SEEDS),
            "max_queries": QUERIES,
            "cells": len(cells),
            "distinct_fingerprints": len(distinct),
        },
        "workers": WORKERS,
        "per_task_builds": {"wall_s": per_task_s},
        "shared_blueprints": {
            "wall_s": shared_s,
            "executed": report.executed,
            "parent_builds": parent_builds,
        },
        "speedup": speedup,
        "cpus": os.cpu_count(),
    }
    written = write_bench_json("parallel_grid", payload)

    show(
        "BENCH parallel_grid (claim-aware --workers, fork-shared blueprints)\n"
        f"  grid: {len(cells)} cells x {QUERIES} queries, "
        f"{len(distinct)} distinct fingerprints, {WORKERS} workers\n"
        f"  per-task rebuilds  {per_task_s:7.3f} s\n"
        f"  shared blueprints  {shared_s:7.3f} s "
        f"({parent_builds} parent builds)   -> {speedup:.2f}x\n"
        f"  {written}"
    )

    # On a multi-core box, building each world once in the parent must
    # beat rebuilding it per task in the workers; a tight bound would
    # flake on loaded CI machines, so only the ordering is asserted,
    # and only where a second core actually exists.
    if (os.cpu_count() or 1) >= 2:
        assert speedup > 1.0, (
            f"shared-blueprint pool was not faster than per-task "
            f"rebuilds ({speedup:.2f}x)"
        )
