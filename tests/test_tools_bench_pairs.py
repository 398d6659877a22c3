"""Smoke test of ``tools/bench_pairs.py``, the parent/head pair runner.

Both trees are this checkout, so whatever the host does to the timings
there is nothing to claim — and two pairs are fewer than the ten the
verdict needs anyway.  The run goes through the real contract command
of ``BENCHMARK.json`` at smoke scale and must write nothing into ``bench/``.
It takes two workloads in one command, the way a claim (one workload) is
checked together with its guards (the others).
"""

import importlib.util
import json
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
            "--workload", "dense_600,grid_resume", "--scale", "smoke",
            "--seconds", "0.5", "--pairs", "2", "--first-seed", "5",
        ],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    workloads = ("dense_600", "grid_resume")
    for workload in workloads:
        assert f"\n{workload}: 2 pairs, seeds 5..6" in out
    for metric in END_TO_END:
        assert out.count(f"\n{metric} [") == len(workloads)
    assert out.count("verdict: no claim") == len(workloads) * len(END_TO_END)
    assert "verdict: claim" not in out
    # One guard verdict per bounded metric and workload.  Which one is the
    # host's business: ``setup_s`` is spawn-to-exit of a fresh interpreter,
    # and two runs of one tree on a loaded host may differ by anything.
    assert out.count("\n  guard: ") == len(workloads) * len(END_TO_END)
    assert out.count("parent: failed 0 / attempted") == len(workloads)
    assert out.count("head: failed 0 / attempted") == len(workloads)
    assert _bench_files() == before  # not even the default bench/out/


def test_an_unknown_workload_in_the_list_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--workload", "dense_600,nonsense", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "unknown workload(s) ['nonsense']" in done.stderr


class TestWorkloadList:
    DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_one_name_is_a_list_of_one(self, bench_pairs):
        assert bench_pairs.workload_names("idle_6k", self.DECLARED) == ["idle_6k"]

    def test_order_is_kept_blanks_and_repeats_dropped(self, bench_pairs):
        names = bench_pairs.workload_names(
            "grid_resume, dense_600,,grid_resume,flood_600,", self.DECLARED
        )
        assert names == ["grid_resume", "dense_600", "flood_600"]

    @pytest.mark.parametrize("text", ["", ",", "grid_resume,grid_tiny", "all"])
    def test_unknown_or_empty_is_refused(self, bench_pairs, text):
        with pytest.raises(ValueError, match="unknown workload"):
            bench_pairs.workload_names(text, self.DECLARED)


class TestGuard:
    """Section 6 of the guide: no worse than the parent by more than the
    bound ``BENCHMARK.json`` fixes for the metric."""

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 1.00]

    def test_a_regression_past_the_bound_reads_worse(self, bench_pairs):
        head = [p * 1.30 for p in self.PARENT]
        word, why = bench_pairs.guard(self.PARENT, head, "lower", 0.25)
        assert word == "WORSE"
        assert "30.0% worse" in why and "may be 25% worse" in why

    def test_one_inside_the_bound_reads_within_bound(self, bench_pairs):
        head = [p * 1.20 for p in self.PARENT]
        assert bench_pairs.guard(self.PARENT, head, "lower", 0.25)[0] == "within bound"
        assert bench_pairs.guard(self.PARENT, head, "lower", 0.15)[0] == "WORSE"

    def test_a_gain_is_within_bound(self, bench_pairs):
        head = [p * 0.5 for p in self.PARENT]
        assert bench_pairs.guard(self.PARENT, head, "lower", 0.25)[0] == "within bound"

    def test_direction_follows_the_contract(self, bench_pairs):
        head = [p * 0.7 for p in self.PARENT]
        assert bench_pairs.guard(self.PARENT, head, "higher", 0.25)[0] == "WORSE"
        assert bench_pairs.guard(self.PARENT, head, "lower", 0.25)[0] == "within bound"

    def test_the_report_prints_it_next_to_the_claim(self, bench_pairs, capsys):
        def results(values):
            return [
                {"failed": 0, "attempted": 40,
                 "metrics": {"cell_s": {"value": value, "unit": "s"}}}
                for value in values
            ]

        metric = {"name": "cell_s", "unit": "s", "better": "lower", "bound": 0.25}
        seeds = list(range(10))
        bench_pairs.report(
            [metric], seeds, ["parent"] * 10,
            {"parent": results(self.PARENT),
             "head": results([p * 1.5 for p in self.PARENT])},
        )
        out = capsys.readouterr().out
        assert "  verdict: no claim\n" in out and "  guard: WORSE\n" in out
        unbounded = {k: v for k, v in metric.items() if k != "bound"}
        bench_pairs.report(
            [unbounded], seeds, ["parent"] * 10,
            {"parent": results(self.PARENT),
             "head": results([p * 0.5 for p in self.PARENT])},
        )
        out = capsys.readouterr().out
        assert "  verdict: claim\n" in out and "guard:" not in out


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
