"""Tests for the benchmark harness's environment-variable parsing.

``benchmarks/conftest.py`` is not an importable package module, so it
is loaded here by file path.
"""

import importlib.util
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEnvParsing:
    def test_defaults_without_env(self, bench_conftest, monkeypatch):
        for name in (
            "REPRO_BENCH_QUERIES",
            "REPRO_BENCH_ABLATION_QUERIES",
            "REPRO_BENCH_SEED",
            "REPRO_BENCH_STORE_CELLS",
        ):
            monkeypatch.delenv(name, raising=False)
        assert bench_conftest.bench_queries() == 1500
        assert bench_conftest.ablation_queries() == 400
        assert bench_conftest.bench_seed() == 20090322
        assert bench_conftest.store_cells() == 10_000

    def test_valid_overrides(self, bench_conftest, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "250")
        monkeypatch.setenv("REPRO_BENCH_ABLATION_QUERIES", "60")
        monkeypatch.setenv("REPRO_BENCH_SEED", "-7")
        monkeypatch.setenv("REPRO_BENCH_STORE_CELLS", "1500")
        assert bench_conftest.bench_queries() == 250
        assert bench_conftest.ablation_queries() == 60
        assert bench_conftest.bench_seed() == -7
        assert bench_conftest.store_cells() == 1500

    @pytest.mark.parametrize("bad", ["", "abc", "1.5", "1e3", "12 00"])
    def test_malformed_value_raises_usage_error(
        self, bench_conftest, monkeypatch, bad
    ):
        monkeypatch.setenv("REPRO_BENCH_QUERIES", bad)
        with pytest.raises(pytest.UsageError) as excinfo:
            bench_conftest.bench_queries()
        message = str(excinfo.value)
        assert "REPRO_BENCH_QUERIES" in message
        assert repr(bad) in message

    def test_malformed_ablation_and_seed_name_the_variable(
        self, bench_conftest, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_ABLATION_QUERIES", "many")
        with pytest.raises(pytest.UsageError, match="REPRO_BENCH_ABLATION_QUERIES"):
            bench_conftest.ablation_queries()
        monkeypatch.setenv("REPRO_BENCH_SEED", "paper")
        with pytest.raises(pytest.UsageError, match="REPRO_BENCH_SEED"):
            bench_conftest.bench_seed()
        monkeypatch.setenv("REPRO_BENCH_STORE_CELLS", "lots")
        with pytest.raises(pytest.UsageError, match="REPRO_BENCH_STORE_CELLS"):
            bench_conftest.store_cells()


class TestBenchWriteGate:
    def test_plain_run_writes_nothing(self, bench_conftest, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)
        monkeypatch.delenv("REPRO_BENCH_WRITE", raising=False)
        note = bench_conftest.write_bench_json("demo", {"x": 1})
        assert list(tmp_path.iterdir()) == []
        assert "REPRO_BENCH_WRITE=1" in note

    def test_writes_under_the_env_guard(self, bench_conftest, monkeypatch, tmp_path):
        monkeypatch.setattr(bench_conftest, "REPO_ROOT", tmp_path)
        monkeypatch.setenv("REPRO_BENCH_WRITE", "1")
        note = bench_conftest.write_bench_json("demo", {"x": 1})
        assert (tmp_path / "BENCH_demo.json").read_text() == '{\n  "x": 1\n}\n'
        assert note == "written to BENCH_demo.json"


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
