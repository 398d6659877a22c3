"""Tests for the command-line interface."""

import argparse
import dataclasses
import io
import json
import shutil

import pytest

from repro.analysis import Claim
from repro.cli import build_parser, main
from repro.experiments.ablations import ABLATIONS
from test_analysis import statements


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.queries > 0
        assert args.store is None

    def test_ablation_ids(self):
        for ablation_id in ABLATIONS:
            args = build_parser().parse_args(["ablation", ablation_id])
            assert args.id == ablation_id
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "zz"])

    def test_ablation_rejects_bad_horizon_cleanly(self):
        code, text = run_cli("ablation", "a6", "--queries", "0")
        assert code == 2
        assert text == "error: max_queries must be >= 1, got 0\n"


def command_flags(parser=None, prefix=""):
    """Each runnable command (``"grid run"``, …) mapped to the set of
    flags it accepts, ``--help`` aside; aliases are skipped."""
    parser = parser or build_parser()
    commands, flags = {}, set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.prog.rsplit(" ", 1)[-1] == name:  # not an alias
                    commands.update(command_flags(sub, f"{prefix} {name}".strip()))
        elif "--help" not in action.option_strings:
            flags.update(action.option_strings)
    if prefix and not commands:
        commands[prefix] = flags
    return commands


_GRID_AXIS_FLAGS = {
    "--store", "--backend", "--spec", "--protocols", "--scenarios",
    "--seeds", "--queries", "--bucket", "--config", "--set",
}


class TestCommandFlags:
    """The settable flags of every command, pinned: a knob added to or
    dropped from the CLI fails here until it is declared."""

    EXPECTED = {
        "figures": {
            "--queries", "--bucket", "--seed", "--store", "--scenario", "--chart",
        },
        "report": {"--queries", "--bucket", "--seed", "--store"},
        "ablation": {"--queries", "--seeds"},
        "grid run": _GRID_AXIS_FLAGS
        | {"--workers", "--runner-id", "--lease-ttl", "--profile"},
        "grid status": _GRID_AXIS_FLAGS,
        "grid check": _GRID_AXIS_FLAGS,
        "grid watch": _GRID_AXIS_FLAGS | {"--interval", "--once", "--window"},
        "grid report": {"--store", "--backend"},
        "grid ls": {"--store", "--backend"},
        "grid migrate": {"--from-backend", "--to-backend"},
        "trace run": {
            "--protocol", "--scenario", "--config", "--seed", "--queries",
            "--bucket", "--out", "--kinds",
        },
        "trace summarize": {"--query"},
        "lint": {"--format", "--select", "--ignore", "--explain", "--rules"},
        "info": set(),
    }

    def test_every_command_is_declared(self):
        assert sorted(command_flags()) == sorted(self.EXPECTED)

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_command_accepts_exactly_its_flags(self, command):
        assert command_flags()[command] == self.EXPECTED[command]


class TestAblationCommand:
    def test_prints_the_table_then_one_line_per_row(self):
        code, text = run_cli("ablation", "a6", "--queries", "20")
        assert text.startswith("A6: Bloom update overhead")
        lines = [line for line in text.splitlines() if line.startswith("[")]
        assert [line.split("] ", 1)[1] for line in lines] == [
            f"A6: {claim.text}" for claim in ABLATIONS["a6"].claims
        ]
        held = sum(line.startswith("[PASS]") for line in lines)
        assert text.endswith(f"\n{held}/{len(lines)} claims hold\n")
        assert code == (0 if held == len(lines) else 1)

    def test_a_failing_row_prints_fail_and_exits_1(self, monkeypatch):
        never = Claim("a row no table satisfies", lambda table: [])
        monkeypatch.setitem(
            ABLATIONS, "a6",
            dataclasses.replace(ABLATIONS["a6"], claims=(never,)),
        )
        code, text = run_cli("ablation", "a6", "--queries", "20")
        assert code == 1
        assert "[FAIL] A6: a row no table satisfies\n       no rows\n" in text
        assert text.endswith("\n0/1 claims hold\n")


class TestAblationSeeds:
    def test_seeds_parse_and_seed_is_its_prefix(self):
        parse = build_parser().parse_args
        assert parse(["ablation", "a5"]).seeds == [20090322]
        assert parse(["ablation", "a5", "--seed", "5"]).seeds == [5]
        assert parse(["ablation", "a5", "--seeds", "1", "2"]).seeds == [1, 2]

    def test_one_table_per_seed_then_k_of_n_per_row(self):
        code, text = run_cli("ablation", "a6", "--seeds", "1", "2", "--queries", "20")
        assert text.startswith("seed 1\nA6: Bloom update overhead")
        assert "\nseed 2\nA6: Bloom update overhead" in text
        lines = [line for line in text.splitlines() if line.startswith("[")]
        assert len(lines) == len(ABLATIONS["a6"].claims)
        for line, claim in zip(lines, ABLATIONS["a6"].claims):
            assert line.split("] ", 1)[1].startswith(f"A6: {claim.text}  (")
            assert line.endswith("/2 seeds)")
        held = sum(line.startswith("[PASS]") for line in lines)
        assert f"\n{held}/{len(lines)} claims hold on all 2 seeds; " in text
        assert code == (0 if held == len(lines) else 1)

    def test_duplicate_seeds_are_a_clean_error(self):
        code, text = run_cli("ablation", "a6", "--seeds", "1", "1", "--queries", "20")
        assert code == 2
        assert text == "error: duplicate entries on the seed axis: [1, 1]\n"


class TestInfo:
    def test_info_prints_paper_config(self):
        code, text = run_cli("info")
        assert code == 0
        assert "num_peers" in text
        assert "1000" in text
        assert "locaware" in text
        assert "flash-crowd" in text

    def test_info_lists_every_registered_protocol(self):
        from repro.experiments import PROTOCOL_REGISTRY

        _, text = run_cli("info")
        assert f"Protocols: {', '.join(PROTOCOL_REGISTRY)}\n" in text
        assert "locaware+locrouting" in text

    def test_info_lists_the_ablation_table(self):
        _, text = run_cli("info")
        assert f"Ablations: {', '.join(ABLATIONS)}\n" in text

    def test_info_lists_every_registered_scenario_with_its_description(self):
        from repro.scenarios import SCENARIO_REGISTRY, scenario_names

        _, text = run_cli("info")
        listed = text.split("\nScenarios:\n", 1)[1].splitlines()
        assert listed == [
            f"  {name:<18} {SCENARIO_REGISTRY[name].description}"
            for name in scenario_names()
        ]
        for name in (
            "baseline", "flash-crowd", "regional-hotspot",
            "churn-storm", "cold-start", "diurnal", "popularity-shift",
        ):
            assert name in scenario_names()


class TestGridRunAxes:
    """The axis flags of ``grid run|status|check|watch``, and the
    commands and flags the store-backed grid replaced."""

    def test_grid_parses_popularity_shift_interval(self):
        from repro.experiments.grid import ScenarioSpec

        args = build_parser().parse_args(
            ["grid", "run", "--scenarios", "popularity-shift:interval_s=200"]
        )
        (entry,) = args.scenarios
        assert ScenarioSpec.parse(entry).make().interval_s == 200

    @pytest.mark.parametrize(
        "axes, message",
        [
            (
                ["--scenarios", "meteor-strike"],
                "unknown scenario 'meteor-strike'",
            ),
            (["--seeds", "1", "1"], "error: duplicate entries on the seed axis"),
            (
                ["--protocols", "flooding", "flooding"],
                "error: duplicate entries on the protocol axis",
            ),
        ],
        ids=["unknown-scenario", "duplicate-seeds", "duplicate-protocols"],
    )
    def test_grid_run_rejects_bad_axes_cleanly(self, axes, message, tmp_path):
        store = tmp_path / "store"
        code, text = run_cli(
            "grid", "run", "--store", str(store), *axes, "--queries", "5"
        )
        assert code == 2
        assert message in text
        if "scenario" in message:
            assert "flash-crowd" in text  # the error lists the known names
        assert not store.exists()  # nothing ran

    def test_grid_runs_small_grid_in_parallel(self, tmp_path):
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--config", "small",
            "--protocols", "flooding", "locaware",
            "--scenarios", "flash-crowd", "baseline",
            "--seeds", "1", "2",
            "--queries", "10",
            "--workers", "2",
        )
        assert code == 0
        assert "total=8 executed=8 cached=0" in text
        assert "scenario: flash-crowd" in text
        assert "scenario: baseline" in text
        assert "locaware across scenarios" in text

    def test_grid_commands_share_one_set_of_axis_defaults(self):
        for command in ("run", "status", "watch", "check"):
            args = build_parser().parse_args(["grid", command])
            assert (args.scenarios, args.seeds) == (["baseline"], [20090322])
            assert args.protocols == ["flooding", "dicas", "dicas-keys", "locaware"]
            assert (args.queries, args.bucket, args.config) == (200, None, "paper")

    @pytest.mark.parametrize("command", ["seed-sweep", "claims", "sweep"])
    def test_replaced_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["grid", "run"], "--reuse-builds"),
            (["grid", "run"], "--out"),
            (["figures"], "--save"),
            (["report"], "--load"),
            (["grid", "check"], "--load"),
        ],
        ids=[
            "grid-run-reuse-builds", "grid-run-out", "figures-save",
            "report-load", "grid-check-load",
        ],
    )
    def test_flag_is_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, flag, "x"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_default_grid_builds_each_world_once(self, tmp_path):
        """2 scenarios × 2 seeds × 4 protocols = 16 cells; baseline and
        flash-crowd share a topology, so 2 worlds, not 16 builds."""
        from repro.experiments.grid import _BLUEPRINT_CACHE
        from repro.overlay.blueprint import build_count

        _BLUEPRINT_CACHE.clear()
        before = build_count()
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--config", "small",
            "--seeds", "1", "2",
            "--scenarios", "baseline", "flash-crowd",
            "--queries", "10",
        )
        assert code == 0
        assert "total=16 executed=16 cached=0" in text
        assert build_count() - before == 2
        _BLUEPRINT_CACHE.clear()


def claim_lines(text):
    """The [PASS] / [FAIL] lines and their detail lines."""
    lines = text.splitlines()
    return [
        line
        for i, line in enumerate(lines)
        if line.startswith(("[PASS]", "[FAIL]"))
        or (i and lines[i - 1].startswith(("[PASS]", "[FAIL]")))
    ]


def without_progress(text):
    """``text`` minus the wall-clock lines a run prints: the ``[i/n]``
    progress lines and the ``done in`` line."""
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("  [", "  done in "))
    )


class TestStoreRoundtrip:
    """figures --store → figures --store (warm) → report --store →
    grid check --store: one grid, persisted once, read by every
    command; and each output equals the storeless command's."""

    FLAGS = ("--queries", "60", "--bucket", "20")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        from repro.experiments.grid import _BLUEPRINT_CACHE
        from repro.overlay.blueprint import build_count

        store = tmp_path_factory.mktemp("cli") / "store"
        storeless = run_cli("figures", *self.FLAGS)
        cold = run_cli("figures", *self.FLAGS, "--store", str(store))
        _BLUEPRINT_CACHE.clear()
        before = build_count()
        warm = run_cli("figures", *self.FLAGS, "--store", str(store))
        warm_builds = build_count() - before
        return store, storeless, cold, warm, warm_builds

    def test_figures_through_a_store_print_the_storeless_figures(self, runs):
        _store, storeless, cold, warm, _builds = runs
        assert storeless[0] in (0, 1)
        assert "[1/4]" in storeless[1] and "[1/4]" in cold[1]
        for code, text in (cold, warm):
            assert code == storeless[0]
            assert without_progress(text) == without_progress(storeless[1])
        assert claim_lines(storeless[1]) and "Figure 2" in storeless[1]

    def test_a_warm_rerun_executes_and_builds_nothing(self, runs):
        _store, _storeless, _cold, warm, warm_builds = runs
        assert "[1/" not in warm[1]
        assert warm_builds == 0

    def test_report_reads_the_store(self, runs):
        store = runs[0]
        code, text = run_cli("report", *self.FLAGS, "--store", str(store))
        assert code == 0
        assert "[1/" not in text  # every cell loaded, none executed
        assert "Figure 2 series" in text
        assert "### Claim checks" in text
        storeless = run_cli("report", *self.FLAGS)
        assert storeless[0] == 0
        assert without_progress(text) == without_progress(storeless[1])

    def test_grid_check_reads_the_same_cells(self, runs):
        store, _storeless, cold, _warm, _builds = runs
        code, text = run_cli("grid", "check", "--store", str(store), *self.FLAGS)
        assert code == cold[0]
        assert code == int("[FAIL]" in cold[1])
        assert "claims hold" in text
        assert claim_lines(text) == claim_lines(cold[1])
        assert claim_lines(text)[::2] == [
            line[:7] + statement
            for line, statement in zip(claim_lines(text)[::2], statements())
        ]
        assert len(claim_lines(text)) == 2 * len(statements())

    @pytest.mark.parametrize("command", ["figures", "report"])
    def test_a_store_that_is_a_file_fails_before_any_cell_runs(
        self, command, tmp_path
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, text = run_cli(command, *self.FLAGS, "--store", str(blocker))
        assert code == 2
        assert text.startswith("error: ")
        assert "blocker" in text
        assert "[1/" not in text
        assert blocker.read_text() == "not a directory"


def _drop(store, key):
    store.delete(key)


def _not_json(store, key):
    store.path_for(key).write_text("{not json")


def _not_a_document(store, key):
    store.path_for(key).write_text("[1, 2]")


def _no_summary(store, key):
    document = store.get(key)
    del document["run"]["summary"]
    store.put(key, document)


class TestStoreResume:
    """``figures`` / ``report --store`` resume whatever the store holds:
    a lost or damaged cell is executed again on its own, a store that
    ``grid run`` filled (either backend) is read without executing, and
    the grid commands read what ``figures`` stored."""

    FLAGS = TestStoreRoundtrip.FLAGS

    @pytest.fixture(scope="class")
    def filled(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("resume") / "store"
        assert run_cli("figures", *self.FLAGS, "--store", str(store))[0] in (0, 1)
        return store

    @pytest.fixture(scope="class")
    def storeless(self):
        return {
            command: run_cli(command, *self.FLAGS) for command in ("figures", "report")
        }

    @staticmethod
    def _flooding_key():
        from repro.experiments import GridSpec, paper_config

        spec = GridSpec(
            base_config=paper_config(),
            scenarios=("baseline",),
            seeds=(20090322,),
            max_queries=60,
            bucket_width=20,
        )
        (cell,) = [cell for cell in spec.expand() if cell.protocol == "flooding"]
        return spec.cell_key(cell)

    @pytest.mark.parametrize(
        "damage",
        [_drop, _not_json, _not_a_document, _no_summary],
        ids=["dropped", "not-json", "not-a-document", "no-summary"],
    )
    @pytest.mark.parametrize("command", ["figures", "report"])
    def test_a_damaged_cell_is_executed_again_alone(
        self, command, damage, filled, storeless, tmp_path
    ):
        from repro.results import ResultStore

        store = tmp_path / "store"
        shutil.copytree(filled, store)
        key = self._flooding_key()
        damage(ResultStore(store), key)
        code, text = run_cli(command, *self.FLAGS, "--store", str(store))
        assert code == storeless[command][0]
        assert without_progress(text) == without_progress(storeless[command][1])
        executed = [line for line in text.splitlines() if "/4] " in line]
        assert len(executed) == 1
        assert "baseline × flooding" in executed[0]
        assert ResultStore(store).get_raw(key) == ResultStore(filled).get_raw(key)

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    @pytest.mark.parametrize("command", ["figures", "report"])
    def test_a_store_grid_run_filled_is_read_without_executing(
        self, command, backend, storeless, tmp_path
    ):
        store = tmp_path / "store"
        code, text = run_cli(
            "grid", "run", "--store", str(store), "--backend", backend, *self.FLAGS
        )
        assert code == 0
        assert "total=4 executed=4 cached=0" in text
        code, text = run_cli(command, *self.FLAGS, "--store", str(store))
        assert code == storeless[command][0]
        assert "/4] " not in text
        assert without_progress(text) == without_progress(storeless[command][1])

    def test_another_query_budget_is_another_grid(self, filled, tmp_path):
        from repro.results import ResultStore

        store = tmp_path / "store"
        shutil.copytree(filled, store)
        code, text = run_cli(
            "figures", "--queries", "40", "--bucket", "20", "--store", str(store)
        )
        assert code in (0, 1)
        assert "[4/4] baseline × locaware" in text
        assert len(ResultStore(store)) == 8

    def test_a_scenario_comparison_resumes_under_its_own_row(self, tmp_path):
        argv = (
            "figures", *self.FLAGS, "--scenario", "flash-crowd",
            "--store", str(tmp_path / "store"),
        )
        cold = run_cli(*argv)
        warm = run_cli(*argv)
        assert "[4/4] flash-crowd × locaware" in cold[1]
        assert "/4] " not in warm[1]
        assert warm[0] == cold[0]
        assert without_progress(warm[1]) == without_progress(cold[1])
        assert "note: this run used scenario 'flash-crowd'" in warm[1]

    def test_grid_ls_lists_the_cells_figures_stored(self, filled):
        code, text = run_cli("grid", "ls", "--store", str(filled))
        assert code == 0
        assert f"Result store {filled}: 4 cells" in text
        for protocol in ("flooding", "dicas", "dicas-keys", "locaware"):
            assert f" {protocol}  20090322       60" in text

    def test_grid_report_aggregates_the_cells_figures_stored(self, filled):
        code, text = run_cli("grid", "report", "--store", str(filled))
        assert code == 0
        assert f"Result store {filled}: 4 cells, 4 rows" in text
        assert "scenario: baseline (mean over 1 seeds)" in text

    def test_grid_status_counts_the_cells_figures_stored(self, filled):
        code, text = run_cli("grid", "status", "--store", str(filled), *self.FLAGS)
        assert code == 0
        assert "grid: total=4 stored=4 claimed=0 pending=0" in text


class TestCompareCommand:
    def test_compare_is_an_alias_of_figures(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert args.scenario is None

    def test_figures_accepts_scenario_flag(self):
        args = build_parser().parse_args(["figures", "--scenario", "flash-crowd"])
        assert args.scenario == "flash-crowd"

    def test_location_aware_routing_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--location-aware-routing"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_rejects_unknown_scenario_cleanly(self):
        code, text = run_cli("compare", "--scenario", "meteor-strike", "--queries", "5")
        assert code == 2
        assert "unknown scenario 'meteor-strike'" in text


class TestGridCommand:
    def _run_grid(self, store, *extra):
        return run_cli(
            "grid", "run",
            "--store", str(store),
            "--config", "small",
            "--protocols", "flooding", "locaware",
            "--scenarios", "baseline", "diurnal:amplitude=0.3",
            "--seeds", "1", "2",
            "--queries", "10",
            *extra,
        )

    def test_grid_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid"])

    def test_grid_run_defaults(self):
        args = build_parser().parse_args(["grid", "run"])
        assert args.grid_command == "run"
        assert args.store == "results"
        assert args.overrides == []

    def test_cold_then_warm_run(self, tmp_path):
        store = tmp_path / "store"
        code, text = self._run_grid(store)
        assert code == 0
        assert "total=8 executed=8 cached=0" in text
        assert "scenario: diurnal[amplitude=0.3]" in text
        code, text = self._run_grid(store)
        assert code == 0
        assert "total=8 executed=0 cached=8" in text

    def test_grid_run_with_override_axis_and_workers(self, tmp_path):
        store = tmp_path / "store"
        code, text = self._run_grid(
            store, "--set", "ttl=5,7", "--workers", "2"
        )
        assert code == 0
        assert "total=16 executed=16 cached=0" in text
        assert "baseline @ ttl=5" in text

    def test_grid_report_streams_the_store(self, tmp_path):
        store = tmp_path / "store"
        self._run_grid(store)
        code, text = run_cli("grid", "report", "--store", str(store))
        assert code == 0
        assert "8 cells" in text
        assert "scenario: baseline" in text
        assert "flooding" in text and "locaware" in text

    def test_grid_ls_lists_cells(self, tmp_path):
        store = tmp_path / "store"
        self._run_grid(store)
        code, text = run_cli("grid", "ls", "--store", str(store))
        assert code == 0
        assert "8 cells" in text
        assert "diurnal[amplitude=0.3]" in text

    def test_empty_store_reported(self, tmp_path):
        for sub in ("report", "ls"):
            code, text = run_cli("grid", sub, "--store", str(tmp_path / "none"))
            assert code == 1
            assert "no cells stored" in text

    def test_bad_scenario_parameter_is_a_clean_error(self, tmp_path):
        code, text = run_cli(
            "grid", "run", "--store", str(tmp_path),
            "--scenarios", "diurnal:wobble=1", "--queries", "5",
        )
        assert code == 2
        assert "does not accept parameter" in text

    def test_bad_set_flag_is_a_clean_error(self, tmp_path):
        code, text = run_cli(
            "grid", "run", "--store", str(tmp_path),
            "--set", "ttl", "--queries", "5",
        )
        assert code == 2
        assert "--set expects" in text

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_set_value_fails_eagerly_naming_the_axis(
        self, tmp_path, bad
    ):
        """--set field=NaN must die before any simulation runs: NaN
        would poison the content-addressed keys (non-standard JSON
        tokens) and nan != nan defeats duplicate detection."""
        code, text = run_cli(
            "grid", "run", "--store", str(tmp_path / "store"),
            "--set", f"ttl={bad}", "--queries", "5",
        )
        assert code == 2
        assert "ttl" in text
        assert "config-override axis" in text
        assert "non-finite" in text
        assert not (tmp_path / "store").exists()  # nothing ran

    def test_non_finite_scenario_parameter_is_a_clean_error(self, tmp_path):
        code, text = run_cli(
            "grid", "run", "--store", str(tmp_path),
            "--scenarios", "diurnal:amplitude=NaN", "--queries", "5",
        )
        assert code == 2
        assert "amplitude" in text
        assert "non-finite" in text

    def test_grid_run_reports_worker_count(self, tmp_path):
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--config", "small",
            "--protocols", "flooding",
            "--scenarios", "baseline",
            "--seeds", "1",
            "--queries", "10",
            "--workers", "2",
            "--runner-id", "wide-runner",
        )
        assert code == 0
        assert "runner: wide-runner" in text
        assert "workers 2" in text
        assert "total=1 executed=1 cached=0" in text

    def test_spec_file_round_trip(self, tmp_path):
        import json as _json

        from repro.experiments import GridSpec, small_config

        spec = GridSpec(
            base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
            protocols=("flooding",),
            scenarios=("baseline",),
            seeds=(1,),
            max_queries=10,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_json.dumps(spec.to_dict()))
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--spec", str(spec_path),
        )
        assert code == 0
        assert "total=1 executed=1 cached=0" in text

    def test_missing_spec_file_is_a_clean_error(self, tmp_path):
        code, text = run_cli(
            "grid", "run", "--store", str(tmp_path),
            "--spec", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "error:" in text

    def test_store_pointing_at_a_file_is_a_clean_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, text = run_cli(
            "grid", "run",
            "--store", str(blocker),
            "--config", "small",
            "--protocols", "flooding",
            "--scenarios", "baseline",
            "--seeds", "1",
            "--queries", "5",
        )
        assert code == 2
        assert "error:" in text

    def test_corrupt_store_document_is_quarantined_not_fatal(self, tmp_path):
        """A corrupt cell no longer aborts report/ls: it is renamed out
        of the store (quarantined), noted, and the rest still renders."""
        store = tmp_path / "store"
        corrupt_key = "ab" + "0" * 62
        shard = store / "ab"
        shard.mkdir(parents=True)
        (shard / f"{corrupt_key}.json").write_text("{not json")
        code, text = run_cli("grid", "report", "--store", str(store))
        assert code == 1  # nothing valid left to aggregate
        assert "skipped corrupt cell" in text
        assert "no cells stored" in text
        # The bad document was renamed where no listing sees it.
        assert not (shard / f"{corrupt_key}.json").exists()
        assert (shard / f"{corrupt_key}.json.corrupt").is_file()
        # ls on a store with one good + one corrupt cell still lists
        # the good one (quarantine already happened above, so re-plant).
        (shard / f"{corrupt_key}.json").write_text("[1, 2]")
        self._run_grid(store)
        code, text = run_cli("grid", "ls", "--store", str(store))
        assert code == 0
        assert "skipped corrupt cell" in text
        assert "8 cells" in text
        # A document that parses but has the wrong shape (schema
        # drift) is likewise skipped and quarantined, not fatal.
        (shard / f"{corrupt_key}.json").write_text('{"kind": "grid-cell"}')
        for sub in ("report", "ls"):
            code, text = run_cli("grid", sub, "--store", str(store))
            assert code == 0, text
            assert "skipped corrupt cell" in text
            (shard / f"{corrupt_key}.json.corrupt").rename(
                shard / f"{corrupt_key}.json"
            )  # re-plant for the next subcommand

    def test_resuming_over_a_corrupt_document_quarantines_and_reruns(
        self, tmp_path
    ):
        from repro.results import ResultStore

        store = tmp_path / "store"
        args = (
            "grid", "run",
            "--store", str(store),
            "--config", "small",
            "--protocols", "flooding",
            "--scenarios", "baseline",
            "--seeds", "1",
            "--queries", "5",
        )
        code, _text = run_cli(*args)
        assert code == 0
        key = next(ResultStore(store).keys())
        path = ResultStore(store).path_for(key)
        path.write_text("{not json")
        code, text = run_cli(*args)
        assert code == 0
        assert "quarantined" in text
        assert "executed=1 cached=0 quarantined=1" in text
        # The corrupt file was renamed aside and the cell re-committed.
        assert path.with_name(f"{key}.json.corrupt").is_file()
        assert ResultStore(store).has(key)

    def test_grid_run_reports_runner_identity(self, tmp_path):
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--config", "small",
            "--protocols", "flooding",
            "--scenarios", "baseline",
            "--seeds", "1",
            "--queries", "5",
            "--runner-id", "test-runner-1",
            "--lease-ttl", "120",
        )
        assert code == 0
        assert "runner: test-runner-1 (lease TTL 120s, workers 1)" in text

    def test_bad_runner_id_is_a_clean_error(self, tmp_path):
        code, text = run_cli(
            "grid", "run",
            "--store", str(tmp_path / "store"),
            "--queries", "5",
            "--runner-id", "no spaces allowed",
        )
        assert code == 2
        assert "runner id" in text


class TestGridStatusCommand:
    def _axes(self, store):
        return (
            "--store", str(store),
            "--config", "small",
            "--protocols", "flooding", "locaware",
            "--scenarios", "baseline",
            "--seeds", "1",
            "--queries", "5",
        )

    def test_status_of_empty_store(self, tmp_path):
        code, text = run_cli(
            "grid", "status", *self._axes(tmp_path / "none")
        )
        assert code == 0
        assert "0 cell(s) stored" in text
        assert "total=2 stored=0 claimed=0 pending=2" in text

    def test_status_after_a_run(self, tmp_path):
        store = tmp_path / "store"
        run_cli("grid", "run", *self._axes(store))
        code, text = run_cli("grid", "status", *self._axes(store))
        assert code == 0
        assert "2 cell(s) stored" in text
        assert "total=2 stored=2 claimed=0 pending=0" in text

    def test_status_shows_live_and_stale_claims(self, tmp_path):
        from repro.experiments import GridSpec, small_config
        from repro.results import ClaimStore, ResultStore

        store_dir = tmp_path / "store"
        spec = GridSpec(
            base_config=small_config(),
            protocols=("flooding", "locaware"),
            scenarios=("baseline",),
            seeds=(1,),
            max_queries=5,
        )
        keys = [spec.cell_key(cell) for cell in spec.expand()]
        live = ClaimStore(ResultStore(store_dir).root, runner_id="alive")
        stale = ClaimStore(
            ResultStore(store_dir).root, runner_id="dead", lease_ttl_s=0.0
        )
        assert live.try_claim(keys[0])
        assert stale.try_claim(keys[1])
        code, text = run_cli("grid", "status", *self._axes(store_dir))
        assert code == 0
        assert "total=2 stored=0 claimed=2 pending=0" in text
        assert "alive" in text and "live" in text
        assert "dead" in text and "stale" in text

    def test_status_shows_each_claims_worker_count(self, tmp_path):
        from repro.experiments import GridSpec, small_config
        from repro.results import ClaimStore, ResultStore

        store_dir = tmp_path / "store"
        spec = GridSpec(
            base_config=small_config(),
            protocols=("flooding", "locaware"),
            scenarios=("baseline",),
            seeds=(1,),
            max_queries=5,
        )
        wide = ClaimStore(
            ResultStore(store_dir).root, runner_id="wide", workers=4
        )
        assert wide.try_claim(spec.cell_key(spec.expand()[0]))
        code, text = run_cli("grid", "status", *self._axes(store_dir))
        assert code == 0
        assert "wide" in text
        assert "workers 4" in text

    def test_status_orphan_claim_on_stored_cell_is_not_pending(
        self, tmp_path
    ):
        """Crash between commit and release leaves a cell both stored
        and claimed; status must count it as stored, never as negative
        pending."""
        from repro.experiments import GridSpec, small_config
        from repro.results import ClaimStore, ResultStore

        store_dir = tmp_path / "store"
        run_cli("grid", "run", *self._axes(store_dir))
        spec = GridSpec(
            base_config=small_config(),
            protocols=("flooding", "locaware"),
            scenarios=("baseline",),
            seeds=(1,),
            max_queries=5,
        )
        orphan = ClaimStore(ResultStore(store_dir).root, runner_id="crashed")
        assert orphan.try_claim(spec.cell_key(spec.expand()[0]))
        code, text = run_cli("grid", "status", *self._axes(store_dir))
        assert code == 0
        assert "total=2 stored=2 claimed=0 pending=0" in text

    def test_status_rejects_bad_axes(self, tmp_path):
        code, text = run_cli(
            "grid", "status",
            "--store", str(tmp_path),
            "--scenarios", "diurnal:wobble=1",
        )
        assert code == 2
        assert "does not accept parameter" in text


class TestGridCheckCommand:
    """grid check: the claim table's verdicts per seed on a stored grid."""

    def _axes(self, store, *seeds, extra=()):
        return (
            "--store", str(store),
            "--config", "small",
            "--seeds", *(seeds or ("11", "12")),
            "--queries", "40",
            *extra,
        )

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("check") / "store"
        code, _ = run_cli("grid", "run", *self._axes(store))
        assert code == 0
        return store

    def test_grid_check_parses(self):
        args = build_parser().parse_args(
            ["grid", "check", "--seeds", "1", "2", "--store", "s"]
        )
        assert (args.grid_command, args.seeds, args.store) == ("check", [1, 2], "s")

    def test_grid_check_tallies_the_claim_table(self, store):
        code, text = run_cli("grid", "check", *self._axes(store))
        lines = [line for line in text.splitlines() if line.startswith("[")]
        assert len(lines) == len(statements())
        for line, statement in zip(lines, statements()):
            tag, rest = line.split("] ", 1)
            held = int(rest.rsplit("(", 1)[1].split("/")[0])
            assert rest == f"{statement}  ({held}/2 seeds)"
            assert tag[1:] == {2: "PASS", 0: "FAIL"}.get(held, "UNRESOLVED")
        assert code == (0 if all(line.startswith("[PASS]") for line in lines) else 1)
        assert "note:" not in text

    def test_missing_cells_are_counted_and_exit_2(self, store):
        code, text = run_cli("grid", "check", *self._axes(store, "11", "12", "13"))
        assert code == 2
        assert text == (
            f"error: 4 of 12 cell(s) of the grid are missing or corrupt in "
            f"store {store}; run `grid run` with the same options first\n"
        )

    def test_an_empty_store_exits_2(self, tmp_path):
        code, text = run_cli("grid", "check", *self._axes(tmp_path / "none"))
        assert code == 2
        assert text.startswith("error: 8 of 8 cell(s) of the grid are missing")

    def test_a_corrupt_cell_is_counted_not_a_traceback(self, tmp_path):
        from repro.experiments import GridSpec, small_config
        from repro.results import ResultStore

        store = tmp_path / "store"
        assert run_cli("grid", "run", *self._axes(store, "11"))[0] == 0
        spec = GridSpec(base_config=small_config(), seeds=(11,), max_queries=40)
        key = spec.cell_key(spec.expand()[0])
        document = ResultStore(store).get(key)
        del document["run"]["summary"]
        ResultStore(store).put(key, document)
        code, text = run_cli("grid", "check", *self._axes(store, "11"))
        assert code == 2
        assert text.startswith("error: 1 of 4 cell(s) of the grid are missing")

    def test_duplicate_seeds_are_a_clean_error(self, tmp_path):
        code, text = run_cli("grid", "check", *self._axes(tmp_path, "1", "1"))
        assert code == 2
        assert "error: duplicate entries on the seed axis" in text

    def test_an_override_axis_gives_one_block_per_row(self, tmp_path):
        store = tmp_path / "store"
        axes = self._axes(store, extra=("--set", "ttl=3,5"))
        assert run_cli("grid", "run", *axes)[0] == 0
        code, text = run_cli("grid", "check", *axes)
        assert code in (0, 1)
        assert text.startswith("== baseline @ ttl=3 ==\n[")
        assert "\n\n== baseline @ ttl=5 ==\n[" in text
        lines = [line for line in text.splitlines() if line.startswith("[")]
        assert len(lines) == 2 * len(statements())
        assert "note:" not in text


class TestClaimsScenarioNote:
    def test_stored_scenario_grid_is_flagged_in_grid_check(self, tmp_path):
        axes = (
            "--store", str(tmp_path / "store"), "--config", "small",
            "--scenarios", "cold-start", "--seeds", "11",
            "--queries", "15", "--bucket", "5",
        )
        assert run_cli("grid", "run", *axes)[0] == 0
        _code, text = run_cli("grid", "check", *axes)
        assert text.startswith(
            "note: this run used scenario 'cold-start'; the §5.2 claim "
            "checks target the baseline regime\n[")


class TestTraceCommand:
    def test_trace_run_writes_parseable_jsonl(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, output = run_cli(
            "trace", "run", "--protocol", "locaware", "--config", "small",
            "--queries", "20", "--seed", "3", "--out", str(trace),
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert events
        assert all("t" in e and "kind" in e for e in events)
        assert "Trace events by kind" in output
        assert "query.issue" in output

    def test_trace_run_kinds_filter(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli(
            "trace", "run", "--protocol", "flooding", "--config", "small",
            "--queries", "10", "--out", str(trace),
            "--kinds", "query.issue",
        )
        assert code == 0
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text(encoding="utf-8").splitlines()
        }
        assert kinds == {"query.issue"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scenario", "no-such-scenario"], "unknown scenario"),
            (["--bucket", "0"], "bucket_width must be >= 1, got 0"),
            (["--bucket", "-3"], "bucket_width must be >= 1, got -3"),
        ],
        ids=["unknown-scenario", "bucket-0", "bucket-negative"],
    )
    def test_trace_run_rejects_bad_arguments(self, tmp_path, argv, message):
        code, output = run_cli(
            "trace", "run", "--config", "small", "--queries", "10", *argv,
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == 2
        assert output.startswith("error: ") and message in output

    @pytest.mark.parametrize(
        "protocol", ["flooding", "dicas", "dicas-keys", "locaware"]
    )
    def test_trace_summarize_all_protocols(self, tmp_path, protocol):
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli(
            "trace", "run", "--protocol", protocol, "--config", "small",
            "--queries", "15", "--out", str(trace),
        )
        assert code == 0
        code, output = run_cli("trace", "summarize", str(trace))
        assert code == 0
        assert "Trace events by kind" in output
        assert "query.issue" in output
        assert "timeline" in output

    def test_trace_summarize_specific_query(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        run_cli(
            "trace", "run", "--protocol", "locaware", "--config", "small",
            "--queries", "15", "--out", str(trace),
        )
        code, output = run_cli("trace", "summarize", str(trace), "--query", "2")
        assert code == 0
        assert "Query 2 timeline" in output

    def test_trace_summarize_missing_file(self, tmp_path):
        code, output = run_cli(
            "trace", "summarize", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert "error" in output

    def test_trace_summarize_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1.0, "kind": "x"}\n{oops\n', encoding="utf-8")
        code, output = run_cli("trace", "summarize", str(bad))
        assert code == 2
        assert "line 2" in output

    def test_trace_summarize_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, output = run_cli("trace", "summarize", str(empty))
        assert code == 1
        assert "no events" in output


class TestGridWatchCommand:
    AXIS = ["--config", "small", "--protocols", "locaware",
            "--scenarios", "baseline", "--seeds", "1", "--queries", "10"]

    def test_watch_empty_store_once(self, tmp_path):
        code, output = run_cli(
            "grid", "watch", "--store", str(tmp_path / "store"),
            *self.AXIS, "--once",
        )
        assert code == 0
        assert "total=1 stored=0" in output
        assert "pending=1" in output

    def test_watch_complete_store_exits_without_once(self, tmp_path):
        store = str(tmp_path / "store")
        code, _ = run_cli("grid", "run", "--store", store, *self.AXIS)
        assert code == 0
        # Not --once: the loop must still terminate because the grid is done.
        code, output = run_cli("grid", "watch", "--store", store, *self.AXIS)
        assert code == 0
        assert "stored=1" in output
        assert "grid complete" in output

    def test_watch_reports_runner_throughput(self, tmp_path):
        store = str(tmp_path / "store")
        run_cli(
            "grid", "run", "--store", store, "--runner-id", "watcher-test",
            *self.AXIS,
        )
        code, output = run_cli(
            "grid", "watch", "--store", store, *self.AXIS, "--once"
        )
        assert code == 0
        assert "watcher-test" in output
        assert "mean simulate" in output

    def test_watch_rejects_bad_interval(self, tmp_path):
        code, output = run_cli(
            "grid", "watch", "--store", str(tmp_path / "s"),
            *self.AXIS, "--interval", "0",
        )
        assert code == 2
        assert "interval" in output

    def test_watch_rejects_bad_window(self, tmp_path):
        code, output = run_cli(
            "grid", "watch", "--store", str(tmp_path / "s"),
            *self.AXIS, "--window", "-5",
        )
        assert code == 2
        assert "window" in output


class TestGridProfileOption:
    def test_profile_flag_dumps_pstats(self, tmp_path):
        import pstats

        profile_dir = tmp_path / "prof"
        code, output = run_cli(
            "grid", "run", "--store", str(tmp_path / "store"),
            "--config", "small", "--protocols", "locaware",
            "--scenarios", "baseline", "--seeds", "1", "--queries", "10",
            "--profile", str(profile_dir),
        )
        assert code == 0
        assert "profiling" in output
        dumps = sorted(profile_dir.glob("*.pstats"))
        assert dumps
        assert pstats.Stats(str(dumps[0])).total_calls > 0


class TestGridBackendOption:
    """--backend on the grid subcommands, and `grid migrate`."""

    def _run_grid(self, store, *extra):
        return run_cli(
            "grid", "run",
            "--store", str(store),
            "--config", "small",
            "--protocols", "flooding", "locaware",
            "--scenarios", "baseline",
            "--seeds", "1", "2",
            "--queries", "10",
            *extra,
        )

    AXIS = (
        "--config", "small",
        "--protocols", "flooding", "locaware",
        "--scenarios", "baseline",
        "--seeds", "1", "2",
        "--queries", "10",
    )

    def test_sqlite_cold_then_warm_autodetected(self, tmp_path):
        store = tmp_path / "store"
        code, text = self._run_grid(store, "--backend", "sqlite")
        assert code == 0
        assert "total=4 executed=4 cached=0" in text
        assert f"store: {store} [sqlite]" in text
        assert (store / "store.sqlite").is_file()
        # Rows, not files: no ??/ shard directories, only the
        # database (plus its WAL/shm journal siblings).
        assert all(
            p.name.startswith("store.sqlite") for p in store.iterdir()
        )
        # The warm run passes no --backend: autodetection must find
        # the SQLite store and execute nothing.
        code, text = self._run_grid(store)
        assert code == 0
        assert "total=4 executed=0 cached=4" in text
        assert f"store: {store} [sqlite]" in text

    def test_status_and_watch_see_sqlite_claims(self, tmp_path):
        from repro.results import ClaimStore, ResultStore

        store_dir = tmp_path / "store"
        self._run_grid(store_dir, "--backend", "sqlite")
        store = ResultStore(store_dir)
        first = next(iter(store.keys()))
        store.delete(first)  # make one cell pending again...
        claims = ClaimStore(
            store_dir, runner_id="busy-runner", backend=store.backend
        )
        claims.try_claim(first)  # ...and hold it like a live runner
        code, text = run_cli(
            "grid", "status", "--store", str(store_dir), *self.AXIS
        )
        assert code == 0
        assert "total=4 stored=3 claimed=1 pending=0" in text
        assert "busy-runner" in text
        code, text = run_cli(
            "grid", "watch", "--store", str(store_dir), "--once", *self.AXIS
        )
        assert code == 0
        assert "total=4 stored=3 claimed=1 pending=0" in text

    def test_report_and_ls_read_sqlite_stores(self, tmp_path):
        store = tmp_path / "store"
        self._run_grid(store, "--backend", "sqlite")
        code, text = run_cli("grid", "report", "--store", str(store))
        assert code == 0
        assert "4 cells" in text
        code, text = run_cli("grid", "ls", "--store", str(store))
        assert code == 0
        assert "4 cells" in text

    def test_migrate_round_trip_is_byte_identical(self, tmp_path):
        from repro.results import ResultStore

        src = tmp_path / "json-store"
        self._run_grid(src)
        code, text = run_cli(
            "grid", "migrate", str(src), str(tmp_path / "db-store")
        )
        assert code == 0
        assert "[json] -> " in text and "[sqlite]" in text
        assert "all documents byte-identical" in text
        code, text = run_cli(
            "grid", "migrate", str(tmp_path / "db-store"),
            str(tmp_path / "back"),
        )
        assert code == 0
        assert "all documents byte-identical" in text
        original, round_tripped = ResultStore(src), ResultStore(
            tmp_path / "back"
        )
        assert round_tripped.backend_name == "json"
        keys = list(original.keys())
        assert list(round_tripped.keys()) == keys
        for key in keys:
            assert round_tripped.path_for(key).read_bytes() == (
                original.path_for(key).read_bytes()
            )
        # And the migrated store satisfies the grid: warm run, 0 cells.
        code, text = self._run_grid(tmp_path / "db-store")
        assert code == 0
        assert "total=4 executed=0 cached=4" in text

    def test_migrate_empty_store_fails_cleanly(self, tmp_path):
        code, text = run_cli(
            "grid", "migrate", str(tmp_path / "empty"), str(tmp_path / "dst")
        )
        assert code == 1
        assert "no cells stored" in text

    def test_migrate_same_directory_rejected(self, tmp_path):
        code, text = run_cli(
            "grid", "migrate", str(tmp_path / "s"), str(tmp_path / "s")
        )
        assert code == 2
        assert "must be different" in text

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["grid", "run", "--backend", "parquet"]
            )

    def test_sqlite_store_pointing_at_a_file_is_a_clean_error(self, tmp_path):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("occupied")
        code, text = self._run_grid(not_a_dir, "--backend", "sqlite")
        assert code == 2
        assert "error:" in text
        assert "Traceback" not in text


class TestLintCommand:
    """The `repro lint` subcommand: exit codes, formats, explain."""

    @staticmethod
    def _project(tmp_path, source):
        """A throwaway project with its own pyproject + one-layer package."""
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\n"
            'package = "pkg"\n'
            'deterministic-layers = ["alpha"]\n'
            "[tool.repro-lint.layers]\n"
            "alpha = []\n",
            encoding="utf-8",
        )
        module = tmp_path / "pkg" / "alpha" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(source, encoding="utf-8")
        return module

    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == []
        assert args.format == "text"
        assert args.select is None and args.ignore is None
        assert args.explain is None

    def test_clean_project_exits_zero(self, tmp_path, monkeypatch):
        self._project(tmp_path, "x = 1\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg")
        assert code == 0
        assert "clean" in text

    def test_findings_exit_nonzero(self, tmp_path, monkeypatch):
        self._project(tmp_path, "import time\n\nx = time.time()\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg")
        assert code == 1
        assert "RPR001" in text
        assert "mod.py:3" in text
        assert "hint:" in text

    def test_json_format(self, tmp_path, monkeypatch):
        self._project(tmp_path, "import time\n\nx = time.time()\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg", "--format", "json")
        assert code == 1
        document = json.loads(text)
        assert document["count"] == 1
        assert document["findings"][0]["code"] == "RPR001"
        assert document["findings"][0]["line"] == 3

    def test_select_narrows_rules(self, tmp_path, monkeypatch):
        self._project(
            tmp_path, "import time\nimport random\n\n"
            "x = time.time()\ny = random.random()\n"
        )
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg", "--select", "RPR002")
        assert code == 1
        assert "RPR002" in text and "RPR001" not in text

    def test_ignore_drops_rules(self, tmp_path, monkeypatch):
        self._project(tmp_path, "import time\n\nx = time.time()\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg", "--ignore", "RPR001")
        assert code == 0
        assert "clean" in text

    def test_unknown_code_is_usage_error(self, tmp_path, monkeypatch):
        self._project(tmp_path, "x = 1\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "pkg", "--select", "RPR999")
        assert code == 2
        assert "unknown rule code" in text

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        self._project(tmp_path, "x = 1\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("lint", "no-such-dir")
        assert code == 2
        assert "error:" in text

    def test_explain_prints_rationale(self):
        code, text = run_cli("lint", "--explain", "RPR003")
        assert code == 0
        assert "RPR003" in text
        assert "offending:" in text and "fixed:" in text

    def test_explain_unknown_code(self):
        code, text = run_cli("lint", "--explain", "RPR999")
        assert code == 2
        assert "unknown rule code" in text

    def test_rules_catalog(self):
        code, text = run_cli("lint", "--rules")
        assert code == 0
        for rule_code in ("RPR001", "RPR002", "RPR003",
                          "RPR004", "RPR005", "RPR006"):
            assert rule_code in text

    def test_repo_self_lint_via_cli(self, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
        code, text = run_cli("lint", "src", "tests", "benchmarks")
        assert code == 0, text
        assert "clean" in text
