"""The ``repro lint`` engine: rule registry and file runner.

Rules are AST visitors registered by code (``RPR001``...); the engine
parses each file once, runs every rule whose scope covers it (most
rules are scoped to layers — see :mod:`repro.lint.config`) and
collects the findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .config import DETERMINISTIC_LAYERS, LintConfig

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "RULES",
    "register_rule",
    "lint_source",
    "lint_paths",
    "collect_files",
]

#: Code used for files that fail to parse — not a registered rule.
PARSE_ERROR_CODE = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at file:line with a fix hint."""

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message}\n    hint: {self.hint}"
        )

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Module:
    """One parsed file, as rules see it."""

    path: str  # root-relative posix path
    layer: str | None
    tree: ast.Module
    source: str


class Rule:
    """Base class: subclass, set the metadata, implement :meth:`check`.

    ``scope`` controls which files the rule sees:

    - ``"deterministic"`` — files in a deterministic layer;
    - ``"package"``       — any file under the package root;
    - ``"all"``           — every linted file (tests included);
    - a tuple of layer names — exactly those layers.
    """

    code: str = "RPR999"
    name: str = "unnamed-rule"
    summary: str = ""
    scope: str | tuple[str, ...] = "deterministic"
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def applies_to(self, module: Module) -> bool:
        if self.scope == "all":
            return True
        if self.scope == "package":
            return module.layer is not None
        if self.scope == "deterministic":
            return module.layer in DETERMINISTIC_LAYERS
        return module.layer in self.scope

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: Module, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            code=self.code,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint or self.summary,
        )


RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add one instance of ``cls`` to the registry."""
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def lint_source(source: str, path: str, config: LintConfig) -> list[Finding]:
    """Lint one in-memory source under a (possibly virtual) path.

    ``path`` decides the file's layer, so fixtures can exercise
    layer-scoped rules by claiming a path inside the package.
    """
    relpath = config.relative_path(path)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        return [
            Finding(
                code=PARSE_ERROR_CODE,
                path=relpath,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                message=f"file does not parse: {error.msg}",
                hint="repro lint needs valid Python to check invariants",
            )
        ]
    module = Module(
        path=relpath, layer=config.layer_of(relpath), tree=tree, source=source
    )
    findings = [
        finding
        for rule in RULES.values()
        if rule.applies_to(module)
        for finding in rule.check(module, config)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def collect_files(paths: Iterable[Path | str], config: LintConfig) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: dict[Path, None] = {}
    for given in paths:
        path = Path(given)
        if not path.is_absolute():
            path = config.root / path
        if path.is_dir():
            for item in sorted(path.rglob("*.py")):
                if "__pycache__" not in item.parts:
                    seen.setdefault(item.resolve(), None)
        elif path.is_file():
            seen.setdefault(path.resolve(), None)
        else:
            raise FileNotFoundError(f"no such file or directory: {given}")
    return sorted(seen)


def lint_paths(
    paths: Iterable[Path | str], config: LintConfig
) -> tuple[list[Finding], int]:
    """Lint files and directories; returns (findings, files checked)."""
    files = collect_files(paths, config)
    findings: list[Finding] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file), config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, len(files)
