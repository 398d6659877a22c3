"""The ``repro lint`` framework and rule set.

Three layers of coverage:

1. **Fixture corpus** — the committed files under
   ``tests/fixtures/lint/`` are self-describing: a ``# lint-path:``
   header assigns each one a virtual in-package path (so layer-scoped
   rules see it) and every line the linter must flag carries an
   ``# expect: CODE`` marker.  The corpus test asserts the finding set
   equals the marker set *exactly* — every rule has true positives and
   true negatives.  A false positive is fixed in the rule, against
   this corpus: there is no suppression comment or rule selection.
2. **Engine semantics** — parse errors, finding locations, rendering,
   the path -> layer mapping and root discovery.
3. **Self-lint** — ``repro lint`` (the whole tree) is clean at HEAD,
   and every rule's documented offending/fixed example really
   trips/passes its own rule (the docs cannot drift from the code).
"""

import re
from pathlib import Path

import pytest

from repro.lint import (
    LINTED_PATHS,
    RULES,
    LintConfig,
    explain_rule,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_catalog,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

_LINT_PATH_RE = re.compile(r"#\s*lint-path:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*((?:RPR\d{3}[, ]*)+)")


def repo_config() -> LintConfig:
    return LintConfig.load(REPO_ROOT)


def fixture_expectations(source: str) -> set[tuple[int, str]]:
    """(line, code) pairs the fixture's ``# expect:`` markers declare."""
    expected = set()
    for number, text in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if match:
            for code in match.group(1).replace(",", " ").split():
                expected.add((number, code))
    return expected


def fixture_virtual_path(source: str, name: str) -> str:
    match = _LINT_PATH_RE.search(source)
    assert match, f"fixture {name} lacks a '# lint-path:' header"
    return match.group(1)


class TestFixtureCorpus:
    """The committed corpus yields exactly the expected rule codes."""

    @pytest.mark.parametrize(
        "fixture", sorted(p.name for p in FIXTURES.glob("*.py"))
    )
    def test_findings_match_markers_exactly(self, fixture):
        source = (FIXTURES / fixture).read_text(encoding="utf-8")
        virtual = fixture_virtual_path(source, fixture)
        findings = lint_source(source, virtual, repo_config())
        got = {(f.line, f.code) for f in findings}
        expected = fixture_expectations(source)
        assert got == expected, (
            f"{fixture}: findings {sorted(got)} != expected "
            f"{sorted(expected)}"
        )

    def test_corpus_covers_every_rule(self):
        """Each shipped rule has at least one true positive on disk."""
        flagged = set()
        for path in FIXTURES.glob("*.py"):
            flagged |= {
                code
                for _line, code in fixture_expectations(
                    path.read_text(encoding="utf-8")
                )
            }
        assert flagged >= set(RULES), (
            f"rules without a committed true-positive fixture: "
            f"{sorted(set(RULES) - flagged)}"
        )

    def test_corpus_has_true_negatives(self):
        """The clean fixture exists and expects nothing."""
        source = (FIXTURES / "clean_module.py").read_text(encoding="utf-8")
        assert fixture_expectations(source) == set()

    def test_fixtures_do_not_trip_on_their_real_path(self):
        """On disk the corpus lives outside the package: no layer, no
        findings — so `repro lint tests` stays clean at HEAD."""
        findings, checked = lint_paths([FIXTURES], repo_config())
        assert checked == len(list(FIXTURES.glob("*.py")))
        assert findings == []


class TestRuleExamples:
    """--explain examples are compiled and linted: docs cannot drift."""

    _PATH_BY_RULE = {
        "RPR001": "src/repro/sim/example.py",
        "RPR002": "src/repro/sim/example.py",
        "RPR003": "src/repro/sim/example.py",
        "RPR004": "src/repro/results/example.py",
        "RPR005": "src/repro/sim/example.py",
        "RPR006": "src/repro/results/example.py",
        "RPR007": "src/repro/experiments/example.py",
    }

    def _codes(self, source, code):
        """The findings of rule ``code`` alone on ``source``."""
        findings = lint_source(source, self._PATH_BY_RULE[code], repo_config())
        return [f.code for f in findings if f.code == code]

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_offending_example_trips_its_rule(self, code):
        assert self._codes(RULES[code].example_bad, code) != [], code

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_fixed_example_passes_its_rule(self, code):
        assert self._codes(RULES[code].example_good, code) == [], code

    @pytest.mark.parametrize("code", sorted(RULES))
    def test_explain_renders(self, code):
        text = explain_rule(code)
        assert code in text
        assert "offending:" in text and "fixed:" in text

    def test_explain_unknown_code(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            explain_rule("RPR999")

    def test_catalog_lists_every_rule(self):
        catalog = rule_catalog()
        for code in RULES:
            assert code in catalog


class TestEngine:
    def test_parse_error_yields_rpr000(self):
        findings = lint_source("def broken(:\n", "src/repro/sim/a.py",
                               repo_config())
        assert [f.code for f in findings] == ["RPR000"]
        assert "does not parse" in findings[0].message

    @pytest.mark.parametrize(
        "source, line",
        [
            ("import time\n\nx = time.time()  # repro-lint: skip RPR001\n", 3),
            ("import time\n\n# repro-lint: skip RPR001\nx = time.time()\n", 4),
        ],
        ids=["trailing", "standalone"],
    )
    def test_a_skip_comment_hides_nothing(self, source, line):
        """There is no suppression comment: a false positive is fixed
        in the rule, so the old spelling is an ordinary comment."""
        findings = lint_source(source, "src/repro/sim/a.py", repo_config())
        assert [(f.line, f.code) for f in findings] == [(line, "RPR001")]

    def test_findings_carry_location_and_hint(self):
        source = "import time\n\nx = time.time()\n"
        (finding,) = lint_source(source, "src/repro/sim/a.py", repo_config())
        assert finding.path == "src/repro/sim/a.py"
        assert finding.line == 3
        assert finding.col >= 1
        assert finding.hint
        rendered = finding.render()
        assert "src/repro/sim/a.py:3" in rendered and "RPR001" in rendered

    def test_render_text_and_json(self):
        source = "import time\n\nx = time.time()\n"
        findings = lint_source(source, "src/repro/sim/a.py", repo_config())
        text = render_text(findings, checked=1)
        assert "1 finding(s) in 1 file checked" in text
        import json as json_module

        document = json_module.loads(render_json(findings, checked=1))
        assert document["count"] == 1
        assert document["checked_files"] == 1
        assert document["findings"][0]["code"] == "RPR001"
        clean = render_text([], checked=3)
        assert "clean" in clean

    def test_lint_paths_missing_path_raises(self, tmp_path):
        config = LintConfig(root=tmp_path)
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"], config)


class TestConfig:
    def test_layer_of(self):
        config = repo_config()
        assert config.layer_of("src/repro/sim/engine.py") == "sim"
        assert config.layer_of("src/repro/cli.py") == "cli"
        assert config.layer_of("src/repro/__init__.py") == "__init__"
        assert config.layer_of("src/repro/lint/rules.py") == "lint"
        assert config.layer_of("tests/test_cli.py") is None
        assert config.layer_of("benchmarks/test_perf_tracing.py") is None

    def test_module_parts(self):
        config = repo_config()
        assert config.module_parts("src/repro/sim/engine.py") == (
            "repro", "sim", "engine",
        )
        assert config.module_parts("src/repro/files/__init__.py") == (
            "repro", "files",
        )
        assert config.module_parts("tests/test_cli.py") is None

    def test_load_roots_at_the_nearest_pyproject_without_reading_it(
        self, tmp_path
    ):
        (tmp_path / "pyproject.toml").write_text("not [ toml", encoding="utf-8")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert LintConfig.load(nested) == LintConfig(root=tmp_path)
        assert repo_config() == LintConfig(root=REPO_ROOT)

    def test_load_without_pyproject_roots_at_start(self, tmp_path):
        assert LintConfig.load(tmp_path).root == tmp_path

    def test_a_lint_table_in_pyproject_changes_nothing(self, tmp_path):
        """The policy lives in ``lint/config.py`` alone: a
        ``[tool.repro-lint]`` table that selects, ignores or allowlists
        is not read, so every rule still applies everywhere."""
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\n'
            'package = "other"\n'
            'select = ["RPR005"]\n'
            'ignore = ["RPR001"]\n'
            '[tool.repro-lint.allow]\n'
            'RPR001 = ["src/repro/sim"]\n',
            encoding="utf-8",
        )
        module = tmp_path / "src" / "repro" / "sim" / "clocky.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\nx = time.time()\n", encoding="utf-8")
        findings, checked = lint_paths(["src"], LintConfig.load(module.parent))
        assert checked == 1
        assert [(f.line, f.code) for f in findings] == [(3, "RPR001")]


class TestLayeringRule:
    def test_undeclared_layer_is_a_finding(self):
        findings = lint_source(
            "x = 1\n", "src/repro/mystery/mod.py", repo_config()
        )
        assert [f.code for f in findings] == ["RPR004"]
        assert "not declared" in findings[0].message

    def test_intra_layer_and_downward_imports_are_legal(self):
        source = "from .graph import OverlayGraph\nfrom ..sim.rng import derive_seed\n"
        assert lint_source(
            source, "src/repro/overlay/network.py", repo_config()
        ) == []

    def test_upward_import_is_flagged(self):
        source = "from ..overlay.network import P2PNetwork\n"
        findings = lint_source(
            source, "src/repro/sim/engine.py", repo_config()
        )
        assert [f.code for f in findings] == ["RPR004"]
        assert "'overlay'" in findings[0].message

    def test_results_importing_sim_is_flagged(self):
        findings = lint_source(
            "from repro.sim.engine import Simulator\n",
            "src/repro/results/store.py",
            repo_config(),
        )
        assert [f.code for f in findings] == ["RPR004"]

    def test_function_local_imports_are_checked(self):
        source = (
            "def late():\n"
            "    from ..overlay.network import P2PNetwork\n"
            "    return P2PNetwork\n"
        )
        findings = lint_source(
            source, "src/repro/sim/engine.py", repo_config()
        )
        assert [f.code for f in findings] == ["RPR004"]

    def test_star_layer_is_unrestricted(self):
        source = "from .sim.engine import Simulator\nfrom .overlay import network\n"
        assert lint_source(source, "src/repro/cli.py", repo_config()) == []


class TestCollectorSwitchRule:
    _SOURCE = "import gc\n\ndef pause():\n    gc.disable()\n    gc.enable()\n"

    def test_only_the_helper_module_may_switch(self):
        config = repo_config()
        assert lint_source(self._SOURCE, "src/repro/sim/gc_pause.py", config) == []
        for elsewhere in (
            "src/repro/sim/engine.py",
            "src/repro/experiments/grid.py",
            "src/repro/cli.py",
        ):
            findings = lint_source(self._SOURCE, elsewhere, config)
            assert [f.code for f in findings] == ["RPR007", "RPR007"], elsewhere

    def test_tests_and_benchmarks_are_out_of_scope(self):
        assert lint_source(self._SOURCE, "tests/test_x.py", repo_config()) == []


class TestSelfLint:
    """The acceptance gate: the tree is clean under its own linter."""

    def test_repo_is_clean_at_head(self):
        findings, checked = lint_paths(LINTED_PATHS, repo_config())
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repro lint is not clean:\n{rendered}"
        # The walk really covered the tree (not an empty-glob pass).
        assert checked > 100

    def test_examples_directory_is_clean(self):
        assert "examples" in LINTED_PATHS
        findings, checked = lint_paths(["examples"], repo_config())
        assert findings == []
        assert checked >= 4
