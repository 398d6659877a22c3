"""Shared fixtures for the benchmark harness.

``test_figures.py`` gates Figures 2-4 on one four-protocol comparison
run at the paper's §5.1 configuration (``BENCH_MAX_QUERIES`` queries
per protocol, the paper-date seed), computed once per session;
``test_ablations.py`` runs every entry of the ablation table
(``repro.experiments.ablations.ABLATIONS``) and gates it on its claim
rows.  Both print their figure or table through ``capsys.disabled()``
(the ``show`` fixture), so it appears on the terminal even under
pytest's capture.

The ``test_perf_*.py`` files are wall-clock gates on properties
``bench/`` does not measure.  They assert and write no file: speed is
recorded by ``bench/`` alone.  Each uses :func:`time_interleaved`:
interleaved repeats, a median, and the spread the same drift-cancelled
ratio shows between runs of the *same* side, so a gate reads "worse
than the noise floor" instead of a bare ratio.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Callable
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
    base = paper_config()
    spec = GridSpec(
        base_config=base,
        seeds=(base.seed,),
        max_queries=BENCH_MAX_QUERIES,
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
