"""Project-aware static analysis (``repro lint``).

A rule-based AST lint pass enforcing the invariants the repository's
scientific validity rests on and no generic tool checks:

- ``RPR001`` no wall-clock reads in deterministic layers;
- ``RPR002`` no module-level ``random.*`` calls there;
- ``RPR003`` every hot-path ``tracer.emit`` dominated by an
  ``enabled`` check (the <3% tracing-overhead contract);
- ``RPR004`` the sim -> overlay -> protocols import-layering DAG;
- ``RPR005`` no iteration over bare set expressions (ordering leaks
  into RNG draw order);
- ``RPR006`` strict JSON (``allow_nan=False``) in results/analysis;
- ``RPR007`` the cyclic collector is switched only in
  ``sim/gc_pause.py``.

Configuration lives in ``pyproject.toml [tool.repro-lint]``; inline
suppressions use ``# repro-lint: skip RPRxxx``.  See the README's
"Static analysis" section for the catalog and how to add a rule.
"""

from . import rules as _rules  # noqa: F401  (importing registers the rules)
from .config import (
    DEFAULT_DETERMINISTIC_LAYERS,
    DEFAULT_LAYER_ALLOWED,
    LintConfig,
)
from .engine import (
    RULES,
    Finding,
    Module,
    Rule,
    collect_files,
    lint_paths,
    lint_source,
    register_rule,
)
from .reporting import explain_rule, render_json, render_text, rule_catalog

__all__ = [
    "DEFAULT_DETERMINISTIC_LAYERS",
    "DEFAULT_LAYER_ALLOWED",
    "LintConfig",
    "RULES",
    "Finding",
    "Module",
    "Rule",
    "collect_files",
    "lint_paths",
    "lint_source",
    "register_rule",
    "explain_rule",
    "render_json",
    "render_text",
    "rule_catalog",
]
