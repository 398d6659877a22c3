"""Shared fixtures for the benchmark harness.

``test_figures.py`` gates Figures 2-4 on one four-protocol comparison
run at the paper's §5.1 configuration, computed once per session;
``test_ablations.py`` runs every entry of the ablation table
(``repro.experiments.ablations.ABLATIONS``) and gates it on its claim
rows.  Scale is tunable through environment variables so CI can run a
cheap pass:

- ``REPRO_BENCH_QUERIES``  — figure-bench query horizon per protocol
  (default 1500);
- ``REPRO_BENCH_ABLATION_QUERIES`` — ablation-bench horizon per run
  (default 400; ``test_ablations.py`` shortens A4's and A8's);
- ``REPRO_BENCH_SEED``     — master seed of the figure bench (default:
  the paper-date seed; the ablation bench runs ``paper_config()``'s).

Output: the figure and ablation benches print their figure or table
through ``capsys.disabled()`` (the ``show`` fixture), so it appears on
the terminal even under pytest's capture.  The perf benches also
record their headline numbers in the tracked ``BENCH_*.json`` files at
the repo root, but only under ``REPRO_BENCH_WRITE=1`` (the CI
bench-smoke step sets it): a plain tier-1 run leaves the tree clean.

Wall-clock gates use :func:`time_interleaved`: interleaved repeats, a
median, and the spread the same drift-cancelled ratio shows between
runs of the *same* side, so a gate reads "worse than the noise floor"
instead of a bare ratio.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis import comparison_slice
from repro.experiments import (
    BENCH_BUCKET_WIDTH,
    BENCH_MAX_QUERIES,
    GridRunner,
    GridSpec,
    paper_config,
)

# The reference substrates (``reference_bloom``, ``reference_latency``)
# live next to the tests that hold the production ones to them;
# ``test_perf_scale.py`` times the production path against them.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))


def _env_int(name: str, default: int) -> int:
    """Parse an integer tuning knob from the environment.

    A malformed value aborts collection with a usage error naming the
    variable, instead of surfacing as a bare ``ValueError`` deep inside
    a fixture.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def bench_queries() -> int:
    """Figure-bench query horizon (env-tunable)."""
    return _env_int("REPRO_BENCH_QUERIES", BENCH_MAX_QUERIES)


def ablation_queries() -> int:
    """Ablation-bench query horizon (env-tunable)."""
    return _env_int("REPRO_BENCH_ABLATION_QUERIES", 400)


def bench_seed() -> int:
    """Master seed for every bench (env-tunable)."""
    return _env_int("REPRO_BENCH_SEED", 20090322)


REPO_ROOT = Path(__file__).resolve().parent.parent


def write_bench_json(name: str, payload: dict) -> str:
    """Record ``payload`` as ``BENCH_<name>.json`` at the repo root if
    ``REPRO_BENCH_WRITE=1``; returns the note to print either way."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    if os.environ.get("REPRO_BENCH_WRITE") != "1":
        return f"{path.name} not written (set REPRO_BENCH_WRITE=1)"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return f"written to {path.name}"


class InterleavedTiming(NamedTuple):
    """``b c b c … b``: each candidate run sits between two baseline runs."""

    baseline_s: list[float]
    candidate_s: list[float]
    #: Median over pairs of candidate ÷ mean of its two neighbouring
    #: baselines (linear host drift cancels).
    ratio: float
    #: Quartile distance of the same ratio taken baseline against
    #: baseline (each interior baseline ÷ mean of the baselines either
    #: side of it): what ``ratio`` reads for identical code on this host
    #: right now.  Drift cancels here too, so it does not loosen a gate.
    noise: float


def time_interleaved(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    pairs: int = 5,
    clock: Callable[[], float] = time.perf_counter,
) -> InterleavedTiming:
    """Time ``pairs`` (≥ 3) candidate runs interleaved with ``pairs + 1``
    baseline runs; a gate compares ``ratio`` against its limit *plus*
    ``noise``."""

    def timed(fn: Callable[[], object]) -> float:
        # Each run starts from a collected heap.  Otherwise the full
        # collections that clean up after one side's runs can keep
        # landing inside the other side's (an alternating schedule
        # aliases with the allocation count that triggers them), which
        # reads as a steady overhead of tens of per cent.
        gc.collect()
        started = clock()
        fn()
        return clock() - started

    baseline_s = [timed(baseline)]
    candidate_s = []
    for _ in range(pairs):
        candidate_s.append(timed(candidate))
        baseline_s.append(timed(baseline))
    around = [(a + b) / 2.0 for a, b in zip(baseline_s, baseline_s[1:])]
    null_ratios = [
        b / ((a + c) / 2.0)
        for a, b, c in zip(baseline_s, baseline_s[1:], baseline_s[2:])
    ]
    q1, _, q3 = statistics.quantiles(null_ratios, n=4)
    return InterleavedTiming(
        baseline_s=baseline_s,
        candidate_s=candidate_s,
        ratio=statistics.median(c / m for c, m in zip(candidate_s, around)),
        noise=q3 - q1,
    )


@pytest.fixture(scope="session")
def figure_comparison():
    """The shared §5.1 four-protocol comparison behind Figures 2-4: one
    seed and one scenario of a storeless grid."""
    spec = GridSpec(
        base_config=paper_config(),
        seeds=(bench_seed(),),
        max_queries=bench_queries(),
        bucket_width=BENCH_BUCKET_WIDTH,
    )
    return comparison_slice(GridRunner(spec).run())


@pytest.fixture()
def show(capsys):
    """Print straight to the terminal, bypassing pytest capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")

    return _show
