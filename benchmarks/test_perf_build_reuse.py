"""Micro-benchmark of the blueprint/instance split (``BENCH_build_reuse.json``).

Measures the three phases the split separates — topology **build**,
blueprint **instantiate**, and protocol **run** — and the two wins the
refactor claims:

- ``run_comparison`` performs exactly **one** topology build for the
  full four-protocol comparison;
- a sweep on the ``router`` latency model (whose Waxman shortest-path
  build dominates cell time) runs at least 1.5× faster wall-clock with
  ``--reuse-builds`` than with per-cell scratch builds, on the same
  grid with byte-identical results.

The measurements are written to ``BENCH_build_reuse.json`` at the repo
root (under ``REPRO_BENCH_WRITE=1``) so CI and future PRs can track the
build-reuse win over time.
"""

import time

from conftest import write_bench_json

from repro.experiments import (
    SweepRunner,
    run_comparison,
    run_protocol,
    small_config,
)
from repro.experiments.grid import _BLUEPRINT_CACHE
from repro.overlay.blueprint import NetworkBlueprint, build_count

#: Query horizon per cell: short on purpose — the bench isolates
#: construction cost, which per-cell scratch builds pay once per cell.
QUERIES = 10

#: The sweep grid: every protocol × 3 seeds on the baseline regime.
PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
SEEDS = (1, 2, 3)


def _router_config(seed=3):
    """A 60-peer system with the paper's full 3000-file/9000-keyword
    catalog on the router (Waxman shortest-path) substrate — the
    configuration whose world build is most expensive relative to a
    short run."""
    return small_config(seed=seed).replace(
        latency_model="router",
        query_rate_per_peer=0.02,
        num_files=3000,
        keyword_pool_size=9000,
    )


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _sweep_seconds(reuse_builds: bool) -> float:
    def run_grid():
        _BLUEPRINT_CACHE.clear()
        SweepRunner(
            base_config=_router_config(),
            protocols=PROTOCOLS,
            scenarios=("baseline",),
            seeds=SEEDS,
            max_queries=QUERIES,
            workers=1,
            reuse_builds=reuse_builds,
        ).run()

    return _best_of(2, run_grid)


def test_perf_build_reuse(show):
    config = _router_config()

    # -- phase timings: build vs instantiate vs run -----------------------
    started = time.perf_counter()
    blueprint = NetworkBlueprint.build(config)
    build_s = time.perf_counter() - started

    instantiate_s = _best_of(3, blueprint.instantiate)

    run_cached_s = _best_of(
        2,
        lambda: run_protocol(
            config, "locaware", max_queries=QUERIES, bucket_width=QUERIES,
            blueprint=blueprint,
        ),
    )
    run_scratch_s = _best_of(
        2,
        lambda: run_protocol(
            config, "locaware", max_queries=QUERIES, bucket_width=QUERIES,
        ),
    )

    # -- run_comparison: one build for four protocols ---------------------
    builds_before = build_count()
    run_comparison(config, max_queries=QUERIES, bucket_width=QUERIES)
    comparison_builds = build_count() - builds_before
    assert comparison_builds == 1, (
        f"run_comparison built the topology {comparison_builds} times "
        "for four protocols; expected exactly one shared build"
    )

    # -- sweep wall-clock: scratch vs --reuse-builds ----------------------
    scratch_wall_s = _sweep_seconds(reuse_builds=False)
    reuse_wall_s = _sweep_seconds(reuse_builds=True)
    _BLUEPRINT_CACHE.clear()
    speedup = scratch_wall_s / reuse_wall_s

    payload = {
        "config": {
            "num_peers": config.num_peers,
            "num_files": config.num_files,
            "latency_model": config.latency_model,
            "seed": config.seed,
        },
        "phases": {
            "build_s": build_s,
            "instantiate_s": instantiate_s,
            "run_cached_blueprint_s": run_cached_s,
            "run_scratch_s": run_scratch_s,
        },
        "comparison": {
            "protocols": len(PROTOCOLS),
            "topology_builds": comparison_builds,
        },
        "sweep": {
            "grid": {
                "protocols": list(PROTOCOLS),
                "scenarios": ["baseline"],
                "seeds": list(SEEDS),
                "max_queries": QUERIES,
            },
            "scratch_wall_s": scratch_wall_s,
            "reuse_wall_s": reuse_wall_s,
            "speedup": speedup,
        },
    }
    written = write_bench_json("build_reuse", payload)

    show(
        "BENCH build_reuse (router substrate, paper-scale catalog)\n"
        f"  build {1e3 * build_s:8.1f} ms   "
        f"instantiate {1e3 * instantiate_s:6.1f} ms   "
        f"run {1e3 * run_cached_s:6.1f} ms ({QUERIES} queries)\n"
        f"  run_comparison: {comparison_builds} topology build "
        f"for {len(PROTOCOLS)} protocols\n"
        f"  sweep {len(PROTOCOLS) * len(SEEDS)} cells: "
        f"scratch {scratch_wall_s:.3f} s vs reuse {reuse_wall_s:.3f} s "
        f"-> {speedup:.2f}x\n"
        f"  {written}"
    )

    # Structural guarantees only — the headline >=1.5x figure lives in
    # the JSON.  Wall-clock ratios are not hard-asserted beyond "reuse
    # never loses": the cached path does strictly less work, so falling
    # to parity would mean the cache is broken, while a tighter bound
    # would flake on a loaded CI machine.
    assert instantiate_s < build_s
    assert speedup > 1.0, (
        f"reuse-builds sweep was not faster than scratch ({speedup:.2f}x)"
    )
