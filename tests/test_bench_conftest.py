"""Tests for the benchmark harness's interleaved timer, and that
``bench/`` is the only harness that records speed.

``benchmarks/conftest.py`` is not an importable package module, so it
is loaded here by file path.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_CONFTEST = _ROOT / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTimeInterleaved:
    @staticmethod
    def scripted(bench_conftest, durations, pairs):
        """Run ``time_interleaved`` on a fake clock that advances by the
        next scripted duration whenever a side runs."""
        now = [0.0]
        script = iter(durations)
        order = []

        def side(tag):
            def run():
                order.append(tag)
                now[0] += next(script)

            return run

        timing = bench_conftest.time_interleaved(
            side("b"), side("c"), pairs=pairs, clock=lambda: now[0]
        )
        return timing, "".join(order)

    def test_candidates_sit_between_baselines(self, bench_conftest):
        timing, order = self.scripted(
            bench_conftest, [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0], pairs=3
        )
        assert order == "bcbcbcb"
        assert timing.baseline_s == pytest.approx([1.0] * 4)
        assert timing.candidate_s == pytest.approx([1.1] * 3)
        assert timing.ratio == pytest.approx(1.1)
        assert timing.noise == pytest.approx(0.0)

    def test_linear_drift_cancels_in_ratio_and_noise(self, bench_conftest):
        # The host slows by 0.1 s per run; the candidate costs the same.
        # Drift must not read as overhead, nor loosen the gate as noise.
        timing, _ = self.scripted(
            bench_conftest, [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6], pairs=3
        )
        assert timing.ratio == pytest.approx(1.0)
        assert timing.noise == pytest.approx(0.0)

    def test_noise_is_the_baseline_vs_baseline_ratio_spread(self, bench_conftest):
        # Baselines 1.0 1.2 1.0 1.2 1.0 1.2: each interior one reads
        # 1.2/1.0 or 1.0/1.2 against its neighbours.
        timing, _ = self.scripted(
            bench_conftest,
            [1.0, 1.1, 1.2, 1.1, 1.0, 1.1, 1.2, 1.1, 1.0, 1.1, 1.2],
            pairs=5,
        )
        assert timing.ratio == pytest.approx(1.0)
        assert timing.noise == pytest.approx(1.2 - 1.0 / 1.2)

    def test_each_run_starts_from_a_collected_heap(self, bench_conftest, monkeypatch):
        events = []
        ticks = iter(range(100))
        monkeypatch.setattr(bench_conftest.gc, "collect", lambda: events.append("gc"))
        bench_conftest.time_interleaved(
            lambda: events.append("b"),
            lambda: events.append("c"),
            pairs=3,
            clock=lambda: float(next(ticks)),
        )
        assert "".join(events) == "gcb" + "gccgcb" * 3

    def test_overhead_reads_through_drift(self, bench_conftest):
        # The host slows by 0.1 s per run and the candidate costs 0.2 s
        # more than a baseline at the same moment: the middle pair reads
        # 1.5 against the 1.3 its neighbours average.
        timing, _ = self.scripted(
            bench_conftest, [1.0, 1.3, 1.2, 1.5, 1.4, 1.7, 1.6], pairs=3
        )
        assert timing.ratio == pytest.approx(1.5 / 1.3)
        assert timing.noise == pytest.approx(0.0)


class TestOneHarness:
    """No second writer of speed figures beside ``bench/``."""

    def test_no_bench_json_at_the_root(self):
        assert sorted(_ROOT.glob("BENCH_*.json")) == []

    def test_no_env_knob_sizes_a_bench(self):
        # Spelled in two halves so this file does not match itself.
        knob = "REPRO_" + "BENCH_"
        sources = [_ROOT / "README.md"]
        for folder in ("src", "tests", "benchmarks", "tools", "examples", ".github"):
            for suffix in ("py", "yml", "md", "toml"):
                sources.extend((_ROOT / folder).rglob(f"*.{suffix}"))
        assert [str(p) for p in sources if knob in p.read_text()] == []

    def test_pytest_benchmark_is_not_a_dependency(self):
        requirements = (_ROOT / "requirements-dev.txt").read_text().split()
        assert "pytest-benchmark" not in requirements

    def test_no_benchmark_test_asks_for_the_benchmark_fixture(self):
        takers = []
        for path in sorted((_ROOT / "benchmarks").glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                    arg.arg == "benchmark" for arg in node.args.args
                ):
                    takers.append(f"{path.name}::{node.name}")
        assert takers == []
