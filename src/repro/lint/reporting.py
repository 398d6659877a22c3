"""Output formatting for ``repro lint``: text, JSON, and --explain."""

from __future__ import annotations

import json

from .engine import RULES, Finding

__all__ = ["render_text", "render_json", "explain_rule", "rule_catalog"]


def render_text(findings: list[Finding], checked: int) -> str:
    """Human-readable findings plus a one-line summary."""
    lines = [finding.render() for finding in findings]
    noun = "file" if checked == 1 else "files"
    if findings:
        lines.append(f"{len(findings)} finding(s) in {checked} {noun} checked")
    else:
        lines.append(f"clean: 0 findings in {checked} {noun} checked")
    return "\n".join(lines)


def render_json(findings: list[Finding], checked: int) -> str:
    """Machine-readable findings document (one JSON object)."""
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
            "checked_files": checked,
        },
        indent=2,
        sort_keys=True,
        allow_nan=False,
    )


def explain_rule(code: str) -> str:
    """Rationale + minimal offending/fixed example for one rule."""
    rule = RULES.get(code)
    if rule is None:
        known = ", ".join(sorted(RULES))
        raise ValueError(f"unknown rule code {code!r} (known: {known})")
    scope = (
        rule.scope if isinstance(rule.scope, str) else ", ".join(rule.scope)
    )
    lines = [
        f"{rule.code} ({rule.name})",
        f"scope: {scope} layers",
        "",
        rule.rationale,
        "",
        "offending:",
        *(f"    {line}" for line in rule.example_bad.rstrip().splitlines()),
        "",
        "fixed:",
        *(f"    {line}" for line in rule.example_good.rstrip().splitlines()),
    ]
    return "\n".join(lines)


def rule_catalog() -> str:
    """One line per registered rule (code, name, summary scope)."""
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code}  {rule.name:<20} {rule.__doc__.split(': ')[-1]}")
    return "\n".join(lines)
