"""Smoke test of ``tools/bench_pairs.py``, the parent/head pair runner.

Both trees are this checkout, so whatever the host does to the timings
there is nothing to claim — and two pairs are fewer than the ten the
verdict needs anyway.  The run goes through the real contract command
of ``BENCHMARK.json`` at smoke scale and must write nothing into ``bench/``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
END_TO_END = ("setup_s", "cell_s", "cell_s_p50", "cell_cpu_s", "peak_rss_mb")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_files():
    """Everything under ``bench/`` but the interpreter's bytecode caches."""
    return sorted(
        str(path) for path in (ROOT / "bench").rglob("*")
        if "__pycache__" not in path.parts
    )


def test_identical_trees_make_no_claim():
    before = _bench_files()
    done = subprocess.run(
        [
            sys.executable, str(TOOL), str(ROOT), str(ROOT),
            "--workload", "dense_600", "--scale", "smoke", "--seconds", "1",
            "--pairs", "2", "--first-seed", "5",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    for metric in END_TO_END:
        assert f"\n{metric} [" in out
    assert out.count("verdict: no claim") == len(END_TO_END)
    assert "verdict: claim" not in out
    assert "parent: failed 0 / attempted" in out
    assert "head: failed 0 / attempted" in out
    assert _bench_files() == before  # not even the default bench/out/


class TestVerdict:
    """Section 8 of the choosing-metrics guide, on hand-made pairs."""

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 1.00]

    @staticmethod
    def decide(bench_pairs, parent, head, better="lower", head_failed_share=0.0):
        return bench_pairs.verdict(parent, head, better, 0.0, head_failed_share)[0]

    def test_a_clear_gain_over_ten_pairs_is_a_claim(self, bench_pairs):
        head = [p * 0.8 for p in self.PARENT]
        assert self.decide(bench_pairs, self.PARENT, head) == "claim"

    def test_fewer_than_ten_pairs_never_claim(self, bench_pairs):
        head = [p * 0.5 for p in self.PARENT[:9]]
        assert self.decide(bench_pairs, self.PARENT[:9], head) == "no claim"

    def test_two_lost_pairs_of_ten_are_no_claim(self, bench_pairs):
        head = [p * 0.8 for p in self.PARENT]
        head[3], head[7] = 2.0, 2.0
        assert self.decide(bench_pairs, self.PARENT, head) == "no claim"

    def test_a_gain_inside_the_parents_own_spread_is_no_claim(self, bench_pairs):
        head = [p - 0.001 for p in self.PARENT]
        assert self.decide(bench_pairs, self.PARENT, head) == "no claim"

    def test_more_failures_void_a_gain(self, bench_pairs):
        head = [p * 0.8 for p in self.PARENT]
        decision = self.decide(bench_pairs, self.PARENT, head, head_failed_share=0.1)
        assert decision == "no claim"

    def test_direction_follows_the_contract(self, bench_pairs):
        head = [p * 1.25 for p in self.PARENT]
        assert self.decide(bench_pairs, self.PARENT, head, "higher") == "claim"
        assert self.decide(bench_pairs, self.PARENT, head, "lower") == "no claim"
