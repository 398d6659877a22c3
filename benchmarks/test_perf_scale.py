"""Scale-frontier benchmark of the array-backed hot path (``BENCH_scale.json``).

The substrate refactor (CSR overlay adjacency, int-backed Bloom
vectors with memoised probe positions, bound O(1) latency closures)
exists to push the feasible system size from ~10² peers toward the
10⁴–10⁵ range.  This bench pins that claim with a standing frontier
table — peers × queries/sec of wall-clock — and two hard gates:

- the **largest** frontier cell (≥600 peers by default) must sustain
  equal-or-better queries/sec than the *seed-style* substrate (byte
  blooms + per-call latency scans, monkeypatched back in) manages at
  60 peers.  Both sides run the same number of queries, so
  that reads "the frontier run takes no longer than the seed-style
  run": the two are timed in interleaved pairs and the median ratio is
  held to 1.0 plus what the seed-style run differs from itself by on
  this host at this moment (``conftest.time_interleaved``);
- at the largest N, the bound latency path (``Underlay.latency_ms``)
  must beat the O(R)-scan reference path
  (``tests/reference_latency.py:scan_latency_ms``) by a hard-asserted
  factor on the router model.

Scale is tunable so CI can run a cheap pass and a workstation can push
the frontier out:

- ``REPRO_BENCH_SCALE_PEERS``   — comma-separated frontier sizes
  (default ``60,600``; the largest entry is the gated cell);
- ``REPRO_BENCH_SCALE_QUERIES`` — query horizon per cell (default 300).

Results land in ``BENCH_scale.json`` at the repo root (under
``REPRO_BENCH_WRITE=1``) so CI uploads them and future PRs can track
the frontier over time.
"""

import functools
import os
import random
import statistics
import time

import pytest
from conftest import time_interleaved, write_bench_json
from reference_bloom import ByteBloomFilter
from reference_latency import scan_latency_ms, scan_rtt_ms

import repro.bloom.counting as counting_module
import repro.bloom.delta as delta_module
import repro.core.bloom_router as bloom_router_module
from repro.experiments import run_protocol, small_config
from repro.net.latency import RouterLevelLatencyModel
from repro.net.underlay import Underlay
from repro.overlay.blueprint import NetworkBlueprint

#: The protocol under test: locaware exercises every refactored
#: substrate (overlay walks, bloom routing, latency on each hop).
PROTOCOL = "locaware"

#: Frontier runs, each timed between two seed-style runs; the gate
#: reads the median ratio.
PAIRS = 5

#: Minimum speedup of the bound latency path over the O(R) scan path
#: at the frontier N.  The bound path replaces two nearest-router
#: scans (O(R) each) plus row indexing with one flat-array load, so
#: parity would mean the binding is broken; the observed figure is far
#: higher and is recorded in the JSON.
LATENCY_SPEEDUP_FLOOR = 2.0


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def _frontier_sizes():
    raw = os.environ.get("REPRO_BENCH_SCALE_PEERS", "60,600")
    try:
        sizes = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        raise pytest.UsageError(
            "environment variable REPRO_BENCH_SCALE_PEERS must be a "
            f"comma-separated list of integers, got {raw!r}"
        ) from None
    if not sizes or sizes[0] < 2:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE_PEERS must name sizes >= 2, got {raw!r}"
        )
    return sizes


QUERIES = _env_int("REPRO_BENCH_SCALE_QUERIES", 300)


def _scale_config(num_peers, seed=11):
    """The small-config ratios (3 files/peer, 9 keywords/file slot)
    scaled to ``num_peers``, on the router substrate — the model whose
    per-call scan cost the bound path eliminates."""
    return small_config(seed=seed).replace(
        num_peers=num_peers,
        num_files=3 * num_peers,
        keyword_pool_size=9 * num_peers,
        latency_model="router",
        query_rate_per_peer=0.02,
    )


def _patch_seed_substrate(mp):
    """Monkeypatch the reference backends of ``tests/`` in: bytearray
    blooms, per-call model-scan latency.  Mirrors
    tests/test_substrate_equivalence.py, which proves the two
    substrates byte-identical — so this comparison is pure wall-clock,
    same trajectory.  The overlay stays on ``OverlayGraph``: its
    dict-of-rows twin left ``src/`` for ``tests/reference_graph.py``
    and is an oracle there, not a substrate to time."""
    mp.setattr(bloom_router_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(counting_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(delta_module, "BloomFilter", ByteBloomFilter)
    mp.setattr(Underlay, "latency_ms", scan_latency_ms)
    mp.setattr(Underlay, "rtt_ms", scan_rtt_ms)
    # Message timing calls the seconds closure an underlay binds at
    # construction, so the scan closure goes on every underlay built
    # under the patch (the seed-style blueprint is built under it).
    init = Underlay.__init__

    def scan_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.latency_s = lambda a, b: scan_latency_ms(self, a, b) / 1000.0

    mp.setattr(Underlay, "__init__", scan_init)


def _best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _timed_build(config):
    """(blueprint, build_s) on the current (possibly monkeypatched)
    substrate."""
    started = time.perf_counter()
    blueprint = NetworkBlueprint.build(config)
    return blueprint, time.perf_counter() - started


def _run_cell(config, blueprint):
    """One run against a pre-built blueprint, so its time measures the
    simulation hot path, not world construction."""
    run_protocol(
        config, PROTOCOL, max_queries=QUERIES, bucket_width=QUERIES,
        blueprint=blueprint,
    )


def _frontier_row(num_peers, build_s, run_s):
    return {
        "num_peers": num_peers,
        "build_s": build_s,
        "run_s": run_s,
        "queries_per_s": QUERIES / run_s,
    }


def _timed_cell(num_peers):
    """The frontier row of one cell that is reported, not gated."""
    config = _scale_config(num_peers)
    blueprint, build_s = _timed_build(config)
    run_s = _best_of(2, lambda: _run_cell(config, blueprint))
    return _frontier_row(num_peers, build_s, run_s)


def _latency_microbench(num_peers):
    """Best-of-3 wall-clock for 20k pair-latency calls through the
    bound path vs the O(R)-scan path on one router-model underlay."""
    underlay = Underlay.build(
        num_peers, random.Random(17), model=RouterLevelLatencyModel(random.Random(19))
    )
    rng = random.Random(23)
    pairs = [(rng.randrange(num_peers), rng.randrange(num_peers)) for _ in range(20_000)]

    def drive(fn):
        for a, b in pairs:
            fn(a, b)

    fast_s = _best_of(3, lambda: drive(underlay.latency_ms))
    scan_s = _best_of(3, lambda: drive(functools.partial(scan_latency_ms, underlay)))
    return fast_s, scan_s, len(pairs)


def test_perf_scale(show):
    sizes = _frontier_sizes()
    frontier_n = sizes[-1]
    assert frontier_n >= 600 or "REPRO_BENCH_SCALE_PEERS" in os.environ

    # -- frontier table: peers × queries/sec on the new substrate ---------
    frontier = [_timed_cell(num_peers) for num_peers in sizes[:-1]]

    # -- the gate: frontier cell vs seed-style 60 peers, interleaved ------
    frontier_config = _scale_config(frontier_n)
    frontier_blueprint, frontier_build_s = _timed_build(frontier_config)
    seed_config = _scale_config(60)
    with pytest.MonkeyPatch.context() as mp:
        _patch_seed_substrate(mp)
        seed_blueprint, seed_build_s = _timed_build(seed_config)

    def run_frontier():
        _run_cell(frontier_config, frontier_blueprint)

    def run_seed():
        with pytest.MonkeyPatch.context() as mp:
            _patch_seed_substrate(mp)
            _run_cell(seed_config, seed_blueprint)

    # One untimed warmup each, then the interleaved timed repeats.
    run_seed()
    run_frontier()
    timing = time_interleaved(run_seed, run_frontier, pairs=PAIRS)
    frontier.append(
        _frontier_row(
            frontier_n, frontier_build_s, statistics.median(timing.candidate_s)
        )
    )
    seed_row = _frontier_row(60, seed_build_s, statistics.median(timing.baseline_s))
    frontier_qps = frontier[-1]["queries_per_s"]
    seed_qps = seed_row["queries_per_s"]

    # -- latency hot path: bound closure vs O(R) scan at the frontier N ---
    fast_s, scan_s, calls = _latency_microbench(frontier_n)
    latency_speedup = scan_s / fast_s

    payload = {
        "config": {
            "protocol": PROTOCOL,
            "latency_model": "router",
            "queries_per_cell": QUERIES,
            "ratios": "small_config scaled: 3 files/peer, 9x keyword pool",
        },
        "frontier": frontier,
        "seed_substrate_60": seed_row,
        "gate": {
            "frontier_peers": frontier_n,
            "frontier_queries_per_s": frontier_qps,
            "seed_60_queries_per_s": seed_qps,
            "pairs": PAIRS,
            # Median over pairs of frontier run ÷ mean of the seed-style
            # runs either side of it, and what that reads for the
            # seed-style run against itself.
            "time_ratio": timing.ratio,
            "noise_floor": timing.noise,
            "ratio": 1.0 / timing.ratio,
        },
        "latency_path": {
            "num_peers": frontier_n,
            "calls": calls,
            "bound_s": fast_s,
            "scan_s": scan_s,
            "speedup": latency_speedup,
        },
    }
    written = write_bench_json("scale", payload)

    rows = "\n".join(
        f"    {cell['num_peers']:>6} peers   "
        f"build {cell['build_s']:6.2f} s   "
        f"run {cell['run_s']:6.2f} s   "
        f"{cell['queries_per_s']:8.1f} q/s"
        for cell in frontier
    )
    show(
        "BENCH scale (router substrate, locaware, "
        f"{QUERIES} queries/cell)\n"
        f"{rows}\n"
        f"    seed-style substrate @ 60 peers: {seed_qps:8.1f} q/s "
        f"(frontier/{60}-seed ratio {1.0 / timing.ratio:.2f}x over {PAIRS} "
        f"interleaved pairs, noise floor {100.0 * timing.noise:.1f}%)\n"
        f"    latency path @ {frontier_n} peers: bound {1e3 * fast_s:.1f} ms "
        f"vs scan {1e3 * scan_s:.1f} ms for {calls} calls "
        f"-> {latency_speedup:.1f}x\n"
        f"    {written}"
    )

    # The headline gate: a 10x-larger system on the new substrate keeps
    # pace with the seed substrate's 60-peer throughput.
    assert timing.ratio <= 1.0 + timing.noise, (
        f"{frontier_n}-peer frontier ran at {frontier_qps:.1f} q/s, below the "
        f"seed substrate's {seed_qps:.1f} q/s at 60 peers: its run took "
        f"{timing.ratio:.2f}x the seed-style run's time (limit 1.0 + "
        f"baseline-vs-baseline noise {timing.noise:.2f})"
    )
    assert latency_speedup >= LATENCY_SPEEDUP_FLOOR, (
        f"bound latency path only {latency_speedup:.2f}x faster than the "
        f"O(R) scan at {frontier_n} peers (floor {LATENCY_SPEEDUP_FLOOR}x)"
    )
