"""The policy of ``repro lint``, stated once.

The linter is project-aware: rules need to know which *layer* a file
belongs to (``sim``, ``overlay``, ``results``, ...), which layers are
*deterministic* (simulated time only — wall clocks and module-level
RNG are forbidden there), and which imports each layer may draw on.
The constants below are those facts, mirroring the repository layout.
Nothing overrides them: there is no configuration table, no per-rule
path allowlist and no inline suppression comment.  A false positive
is fixed in the rule, whose ground truth is the fixture corpus under
``tests/fixtures/lint/``.

:class:`LintConfig` carries only the root the paths are relative to,
so tests can point the linter at a synthetic tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path, PurePosixPath

__all__ = [
    "DETERMINISTIC_LAYERS",
    "LAYER_ALLOWED",
    "LINTED_PATHS",
    "LintConfig",
    "PACKAGE_NAME",
    "PACKAGE_PATH",
]

#: The package below the root, and the name it is imported as.
PACKAGE_PATH: tuple[str, ...] = ("src", "repro")
PACKAGE_NAME = PACKAGE_PATH[-1]

#: What ``repro lint`` with no paths checks: the whole tree.
LINTED_PATHS: tuple[str, ...] = ("src", "tests", "benchmarks", "examples", "tools")

# Layers whose code runs under the discrete-event clock: byte-identical
# replay is the contract, so wall clocks (RPR001), module-level RNG
# (RPR002), unguarded tracing (RPR003), and unordered set iteration
# (RPR005) are all forbidden here.
DETERMINISTIC_LAYERS: tuple[str, ...] = (
    "bloom",
    "core",
    "files",
    "net",
    "overlay",
    "protocols",
    "scenarios",
    "sim",
    "workload",
)

# The import DAG (RPR004): layer -> layers it may import, besides
# itself and the stdlib.  "*" means unrestricted (the CLI boundary).
# ``sim`` is the bottom — the simulator imports nothing above it, which
# is what lets telemetry stay duck-typed and provably inert (PR 8) —
# and ``results`` is storage policy that must never reach back into
# the simulation.
LAYER_ALLOWED: dict[str, tuple[str, ...]] = {
    "sim": (),
    "files": (),
    "net": (),
    "bloom": (),
    "results": (),
    "lint": (),
    "overlay": ("sim", "net", "files", "bloom"),
    "protocols": ("overlay", "sim", "files"),
    "core": ("protocols", "overlay", "bloom", "sim", "files"),
    "workload": ("overlay", "sim"),
    "scenarios": ("workload", "overlay", "sim"),
    "analysis": ("protocols", "results", "sim"),
    "experiments": (
        "analysis",
        "bloom",
        "core",
        "files",
        "net",
        "overlay",
        "protocols",
        "results",
        "scenarios",
        "sim",
        "workload",
    ),
    "cli": ("*",),
    "__init__": ("*",),
    "__main__": ("*",),
}


def _below_package(relpath: str) -> tuple[str, ...]:
    """The parts of ``relpath`` below the package root (none outside it)."""
    parts = PurePosixPath(relpath).parts
    if parts[: len(PACKAGE_PATH)] != PACKAGE_PATH:
        return ()
    return parts[len(PACKAGE_PATH) :]


@dataclass(frozen=True)
class LintConfig:
    """The root that linted paths are resolved against."""

    root: Path

    def relative_path(self, path: Path | str) -> str:
        """``path`` as a root-relative posix string (as-is if outside)."""
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = (self.root / resolved).resolve()
        try:
            return resolved.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    @staticmethod
    def layer_of(relpath: str) -> str | None:
        """The layer a root-relative file path belongs to, if any.

        Files directly under the package root form single-module layers
        named after the module (``cli.py`` -> layer ``cli``); files in
        a subdirectory belong to the layer named by that directory.
        Files outside the package root have no layer, so layer-scoped
        rules skip them (tests and benchmarks import freely).
        """
        remainder = _below_package(relpath)
        if not remainder:
            return None
        if len(remainder) == 1:
            return PurePosixPath(remainder[0]).stem
        return remainder[0]

    @staticmethod
    def module_parts(relpath: str) -> tuple[str, ...] | None:
        """Dotted-module parts for a package file (None outside it)."""
        below = _below_package(relpath)
        if not below:
            return None
        remainder = [PurePosixPath(part).stem for part in below]
        if remainder[-1] == "__init__":
            remainder.pop()
        return (PACKAGE_NAME, *remainder)

    @classmethod
    def load(cls, start: Path | str | None = None) -> LintConfig:
        """Root the linter at the nearest ancestor of ``start`` (default:
        the working directory) holding a ``pyproject.toml``, or at
        ``start`` itself if none does.  The file is not read."""
        base = Path(start) if start is not None else Path.cwd()
        base = base.resolve()
        if base.is_file():
            base = base.parent
        for candidate in (base, *base.parents):
            if (candidate / "pyproject.toml").is_file():
                return cls(root=candidate)
        return cls(root=base)
