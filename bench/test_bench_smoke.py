"""Tier-1 smoke test of the benchmark itself.

Runs all six workloads at smoke scale (60 peers / 2 seeds / 5 warm
passes) in-process, untraced and traced, into ``tmp_path`` and checks
the promises ``BENCHMARK.json`` and ``bench/README.md`` make: declared
names == emitted names, nothing fails, tracing is inert and fully
removed, the self-time accounting closes, and nothing is written
outside the output directory.
"""

import importlib
import json
import os
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
IGNORED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _raw_targets():
    """Every object the tracer replaces, as stored before any tracing."""
    targets = [
        (module, cls, attr)
        for _name, module, cls, attrs, _kind in layertrace.TARGETS
        for attr in attrs
    ] + [entry[:3] for entry in layertrace.ENTRY_POINTS]
    raw = {}
    for module_name, cls, attr in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        raw[module_name, cls, attr] = vars(owner)[attr]
    return raw


def _tree(root, skip):
    """path → (size, mtime) of every file under ``root`` outside ``skip``."""
    seen = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = [
            d for d in dirs
            if d not in IGNORED_DIRS and Path(folder, d).resolve() != skip
        ]
        for name in files:
            stat = os.stat(Path(folder, name))
            seen[str(Path(folder, name))] = (stat.st_size, stat.st_mtime_ns)
    return seen


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    originals = _raw_targets()
    before = _tree(ROOT, out.resolve())
    outcomes = {
        (name, trace): bench_run.run_workload(
            name, DEFAULT_SEED, 0.0, trace, scale="smoke", out_dir=out, probes=False
        )
        for name in WORKLOADS
        for trace in (False, True)
    }
    return {
        "out": out,
        "outcomes": outcomes,
        "originals": originals,
        "written": {
            path for path, stat in _tree(ROOT, out.resolve()).items()
            if before.get(path) != stat
        },
    }


def test_declared_names_are_the_emitted_names(smoke):
    contract = bench_run.contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in contract[section]}
        assert all(NAME.match(name) for name in declared)
        assert all(declared.values()), "every metric has a unit"
        for name in WORKLOADS:
            metrics = smoke["outcomes"][name, trace]["result"]["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == declared
    every_traced_metric = {f"{n}_calls" for n in bench_run.TRACED_CALLS} | set(
        bench_run.TRACED_SECONDS.values()
    )
    assert every_traced_metric <= {m["name"] for m in contract["per_layer"]}


def test_nothing_fails_and_tracing_is_inert(smoke):
    for (name, trace), outcome in smoke["outcomes"].items():
        result, detail = outcome["result"], outcome["detail"]
        assert result["correct"] and result["failed"] == 0, (name, detail["problems"])
        assert result["attempted"] >= 1
        assert detail["digests"], name
        if trace:
            assert detail["traced_digests"] == detail["digests"], name
            untraced = smoke["outcomes"][name, False]["detail"]["digests"]
            assert detail["digests"] == untraced, name


def test_every_wrapper_is_removed(smoke):
    from repro.sim.engine import Simulator

    assert smoke["originals"] == _raw_targets()
    assert Simulator.run is smoke["originals"]["repro.sim.engine", "Simulator", "run"]
    assert not hasattr(Simulator.run, "__wrapped__")


def test_self_time_accounting_closes(smoke):
    for name in WORKLOADS:
        detail = smoke["outcomes"][name, True]["detail"]
        wall = detail["traced_wall_s"]
        other = wall - detail["top_level_s"]
        assert other >= 0.0
        assert abs(detail["span_self_s"] + other - wall) <= 0.02 * wall, name
        assert (smoke["out"] / f"trace-{name}.jsonl").stat().st_size > 0


def test_layers_separate_as_designed(smoke):
    def metric(name, key):
        return smoke["outcomes"][name, True]["result"]["metrics"][key]["value"]

    for name in ("flood_600", "grid_resume"):
        for key in ("bloom.membership_tests", "bloom.updates_sent",
                    "bloom.encode_calls", "bloom.encode_self_s", "bloom.contains_self_s"):
            assert metric(name, key) == 0, (name, key)
    for name in WORKLOADS:
        leaves = metric(name, "overlay.churn_leaves")
        assert (leaves > 0) == (name == "churn_600"), name
    assert metric("grid_resume", "experiments.simulate_s") == 0
    assert metric("grid_resume", "results.get_calls") == 1
    assert metric("grid_small", "overlay.builds") > 0


def test_nothing_is_written_outside_the_output_directory(smoke):
    assert smoke["written"] == set()
    assert not any(smoke["out"].glob("*-*/")), "stores are removed on exit"


def test_compare_verdicts():
    def side(values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "q1": ordered[1],
                "q3": ordered[-2], "values": values}

    base = side([10.0, 10.1, 10.2, 10.3, 10.4])
    assert compare.verdict(base, side([10.1, 10.2, 10.3, 10.4, 10.5]), "lower", 0.1)[0] == "ok"
    assert compare.verdict(base, side([12.0, 12.1, 12.2, 12.3, 12.4]), "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, side([8.0, 8.1, 8.2, 8.3, 8.4]), "lower", 0.1)[0] == "better"
    assert compare.verdict(base, side([8.0, 8.1, 8.2, 8.3, 8.4]), "higher", 0.1)[0] == "worse"
    two = {"median": 10.0, "q1": 10.0, "q3": 10.0, "values": [10.0, 10.0]}
    assert compare.verdict(two, {**two, "median": 9.0, "values": [9.0, 9.0]}, "lower", 0.1)[0] == "ok"
    noisy = side([8.0, 9.0, 10.0, 11.0, 12.0])
    assert compare.verdict(noisy, side([8.5, 9.5, 10.5, 11.5, 12.5]), "lower", 0.1)[0] == "unresolved"
    assert json.dumps(compare.verdict(base, base, "lower", 0.1)) == '["ok", 0.0]'
