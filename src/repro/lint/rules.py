"""The project-specific rule set (``RPR001`` ... ``RPR007``).

Each rule encodes one invariant the repository's scientific validity
rests on and no generic linter checks.  ``repro lint --explain CODE``
prints each rule's rationale with a minimal offending/fixed pair — the
``example_bad``/``example_good`` attributes here, which the fixture
tests also compile and lint, so every documented example is verified
to trip (or pass) its own rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .config import LintConfig
from .engine import Finding, Module, Rule, register_rule

__all__ = [
    "WallClockRule",
    "ModuleRandomRule",
    "UnguardedEmitRule",
    "LayeringRule",
    "SetIterationRule",
    "JsonNanRule",
    "CollectorSwitchRule",
]

#: Modules whose bindings the call-resolution rules track.
_TRACKED_MODULES = ("time", "datetime", "random", "json", "gc")


def _import_bindings(tree: ast.Module) -> dict[str, str]:
    """Local name -> qualified name, for tracked module imports.

    ``import time as t`` binds ``t -> time``; ``from datetime import
    datetime as dt`` binds ``dt -> datetime.datetime``.  Only top-level
    module roots in ``_TRACKED_MODULES`` are tracked.
    """
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in _TRACKED_MODULES:
                    continue
                if alias.asname is not None:
                    bindings[alias.asname] = alias.name
                else:
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level != 0 or node.module is None:
                continue
            if node.module.split(".")[0] not in _TRACKED_MODULES:
                continue
            for alias in node.names:
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return bindings


def _dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _resolve_call(node: ast.Call, bindings: dict[str, str]) -> str | None:
    """The qualified name a call resolves to through the bindings."""
    parts = _dotted_parts(node.func)
    if not parts:
        return None
    head = bindings.get(parts[0])
    if head is None:
        return None
    return ".".join([head, *parts[1:]])


@register_rule
class WallClockRule(Rule):
    """RPR001: no wall-clock reads in deterministic layers."""

    code = "RPR001"
    name = "no-wall-clock"
    summary = (
        "inject a clock (sim.now, or a clock callable passed in) — "
        "wall time breaks byte-identical replay"
    )
    scope = "deterministic"
    rationale = (
        "Simulated layers run on the discrete-event clock: the same "
        "seed must replay byte-identically, and a wall-clock read "
        "smuggles the host's real time into results.  Passing a clock "
        "*function* (e.g. a time.perf_counter default on an injectable "
        "parameter) stays legal — only calling one here is flagged."
    )
    example_bad = (
        "import time\n"
        "\n"
        "def expire(entries):\n"
        "    now = time.time()\n"
        "    return [e for e in entries if e.deadline > now]\n"
    )
    example_good = (
        "def expire(entries, now):\n"
        "    # caller passes sim.now (or an injected clock's reading)\n"
        "    return [e for e in entries if e.deadline > now]\n"
    )

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.sleep",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = _resolve_call(node, bindings)
            if qname in self._BANNED:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock call {qname}() in deterministic "
                    f"layer {module.layer!r}",
                )


@register_rule
class ModuleRandomRule(Rule):
    """RPR002: no module-level ``random.*`` calls in deterministic layers."""

    code = "RPR002"
    name = "no-module-random"
    summary = (
        "draw from a bound random.Random (RandomStreams.stream(...)) — "
        "the module-level RNG is shared, unseeded global state"
    )
    scope = "deterministic"
    rationale = (
        "All randomness flows through named RandomStreams so replay is "
        "byte-identical and build/run streams stay separated.  Calls "
        "on the random *module* (random.random(), random.choice(), "
        "random.seed()) hit one process-global generator that any "
        "import can perturb.  Constructing random.Random(seed) — the "
        "bound-generator pattern — stays legal."
    )
    example_bad = (
        "import random\n"
        "\n"
        "def pick_neighbor(neighbors):\n"
        "    return random.choice(neighbors)\n"
    )
    example_good = (
        "def pick_neighbor(neighbors, rng):\n"
        "    # rng is a random.Random bound to a named stream\n"
        "    return rng.choice(neighbors)\n"
    )

    _ALLOWED = frozenset({"random.Random"})

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = _resolve_call(node, bindings)
            if (
                qname is not None
                and qname.startswith("random.")
                and qname not in self._ALLOWED
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to module-level {qname}() in deterministic "
                    f"layer {module.layer!r}",
                )


def _mentions_enabled(test: ast.expr) -> bool:
    """Does an ``if`` test reference an ``enabled`` flag?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "enabled":
            return True
    return False


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _is_tracer_emit(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "emit":
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return "tracer" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "tracer" in receiver.attr.lower()
    return False


@register_rule
class UnguardedEmitRule(Rule):
    """RPR003: every hot-path ``tracer.emit`` is dominated by a guard."""

    code = "RPR003"
    name = "guarded-tracer-emit"
    summary = (
        "wrap the emit in `if tracer.enabled:` — payload construction "
        "must cost nothing when tracing is off"
    )
    scope = "deterministic"
    rationale = (
        "The <3% tracing-off overhead gate (BENCH_tracing.json) holds "
        "because disabled runs skip trace-payload construction "
        "entirely: every emit call site sits under an `if "
        "tracer.enabled:` check (or after an early `if not "
        "tracer.enabled: return`).  An unguarded emit builds its "
        "payload dict on every event even when tracing is off.  The "
        "guard must dominate the call in the same function — a guard "
        "outside a nested def does not count, because the inner "
        "function runs later (e.g. as a scheduled callback)."
    )
    example_bad = (
        "def on_hit(network, query):\n"
        "    network.tracer.emit(network.sim.now, 'query.hit',\n"
        "                        qid=query.qid)\n"
    )
    example_good = (
        "def on_hit(network, query):\n"
        "    if network.tracer.enabled:\n"
        "        network.tracer.emit(network.sim.now, 'query.hit',\n"
        "                            qid=query.qid)\n"
    )

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        yield from self._walk_body(module, module.tree.body, guarded=False)

    def _walk_body(
        self, module: Module, body: list[ast.stmt], guarded: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._walk_stmt(module, stmt, guarded)
            # An early-exit guard (`if not tracer.enabled: return`)
            # dominates everything after it in this block.
            if (
                isinstance(stmt, ast.If)
                and _mentions_enabled(stmt.test)
                and _terminates(stmt.body)
            ):
                guarded = True

    def _walk_stmt(
        self, module: Module, stmt: ast.stmt, guarded: bool
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A lexical guard outside the def does not dominate calls
            # inside it — the body runs later, unguarded.
            yield from self._walk_body(module, stmt.body, guarded=False)
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._walk_body(module, stmt.body, guarded=False)
            return
        if isinstance(stmt, ast.If):
            inner = guarded or _mentions_enabled(stmt.test)
            yield from self._walk_body(module, stmt.body, inner)
            yield from self._walk_body(module, stmt.orelse, guarded)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            yield from self._walk_body(module, stmt.body, guarded)
            yield from self._walk_body(module, stmt.orelse, guarded)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from self._walk_body(module, stmt.body, guarded)
            return
        if isinstance(stmt, ast.Try):
            yield from self._walk_body(module, stmt.body, guarded)
            for handler in stmt.handlers:
                yield from self._walk_body(module, handler.body, guarded)
            yield from self._walk_body(module, stmt.orelse, guarded)
            yield from self._walk_body(module, stmt.finalbody, guarded)
            return
        if guarded:
            return
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _is_tracer_emit(node):
                yield self.finding(
                    module,
                    node,
                    "tracer.emit() not dominated by an `enabled` check",
                )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # Nested defs inside expressions/statements: their
                # bodies are unguarded regardless of context.
                body = (
                    node.body
                    if isinstance(node.body, list)
                    else [ast.Expr(node.body)]
                )
                yield from self._walk_body(module, body, guarded=False)


@register_rule
class LayeringRule(Rule):
    """RPR004: the sim -> overlay -> protocols import DAG is mechanical."""

    code = "RPR004"
    name = "import-layering"
    summary = (
        "respect the declared layer DAG ([tool.repro-lint.layers]) — "
        "move the dependency down or pass data in instead"
    )
    scope = "package"
    rationale = (
        "Telemetry is provably inert because the simulator never "
        "imports the layers observing it (the collectors duck-type "
        "instead), and results storage never reaches back into the "
        "simulation.  The declared layer map makes that discipline "
        "mechanical: each layer names the layers it may import; "
        "anything else — including an import from a layer missing "
        "from the map — is a finding."
    )
    example_bad = (
        "# in src/repro/results/store.py — results is storage policy\n"
        "from ..sim.engine import Simulator\n"
    )
    example_good = (
        "# results stays below the simulation: callers hand it\n"
        "# plain documents, never live simulator objects\n"
        "def put(self, key: str, document: dict) -> None: ...\n"
    )

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        layer = module.layer
        assert layer is not None  # scope == "package" guarantees it
        allowed = config.allowed_imports(layer)
        if allowed is None:
            yield self.finding(
                module,
                module.tree,
                f"layer {layer!r} is not declared in the layer map",
                hint="add it (and its allowed imports) to "
                "[tool.repro-lint.layers] in pyproject.toml",
            )
            return
        if "*" in allowed:
            return
        # Relative imports resolve against the *containing package*:
        # the module's own parts for an __init__.py (which names the
        # package itself), its parent otherwise.
        base = config.module_parts(module.path)
        assert base is not None
        anchor = base if module.path.endswith("__init__.py") else base[:-1]
        for node in ast.walk(module.tree):
            for target, description in self._import_targets(
                node, anchor, config.package_name
            ):
                if target != layer and target not in allowed:
                    yield self.finding(
                        module,
                        node,
                        f"layer {layer!r} imports layer {target!r} "
                        f"({description}), which the layer map forbids",
                    )

    def _import_targets(
        self, node: ast.AST, anchor: tuple[str, ...], package: str
    ) -> Iterator[tuple[str, str]]:
        """(target layer, human description) pairs for one import node."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == package and len(parts) > 1:
                    yield parts[1], f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            yield from self._import_from_targets(node, anchor, package)

    def _import_from_targets(
        self, node: ast.ImportFrom, anchor: tuple[str, ...], package: str
    ) -> Iterator[tuple[str, str]]:
        module_parts = node.module.split(".") if node.module else []
        if node.level == 0:
            target = module_parts
        else:
            # Resolve `from ..X import y` against the containing package.
            if node.level - 1 > len(anchor):
                return
            resolved = anchor[: len(anchor) - (node.level - 1)]
            target = [*resolved, *module_parts]
        if not target or target[0] != package:
            return
        dots = "." * node.level
        described = f"from {dots}{node.module or ''} import ..."
        if len(target) > 1:
            yield target[1], described
        else:
            # `from . import sim` at the package root: each imported
            # name is itself a layer (or top-level module).
            for alias in node.names:
                yield alias.name, f"from {dots} import {alias.name}"


def _is_bare_set(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in {"set", "frozenset"}
    )


@register_rule
class SetIterationRule(Rule):
    """RPR005: no iteration over bare set expressions."""

    code = "RPR005"
    name = "no-set-iteration"
    summary = (
        "wrap the set in sorted(...) — set iteration order depends on "
        "PYTHONHASHSEED and leaks into RNG draw order"
    )
    scope = "deterministic"
    rationale = (
        "Iterating a set visits elements in hash order; for strings "
        "that order changes per process (hash randomization), so any "
        "loop that draws RNG values or appends to results while "
        "iterating a set breaks byte-identical replay.  Deterministic "
        "layers iterate sorted(...) views instead.  Only syntactically "
        "evident sets (literals, set()/frozenset() calls, set "
        "comprehensions) are flagged — variables are out of reach of "
        "a static check."
    )
    example_bad = (
        "def visit(peers, rng):\n"
        "    for peer in set(peers):\n"
        "        peer.touch(rng.random())\n"
    )
    example_good = (
        "def visit(peers, rng):\n"
        "    for peer in sorted(set(peers)):\n"
        "        peer.touch(rng.random())\n"
    )

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_bare_set(it):
                    yield self.finding(
                        module,
                        it,
                        "iteration over an unordered set expression in "
                        f"deterministic layer {module.layer!r}",
                    )


@register_rule
class JsonNanRule(Rule):
    """RPR006: strict JSON in the results/analysis boundary."""

    code = "RPR006"
    name = "json-allow-nan"
    summary = (
        "pass allow_nan=False (or use results.keys.canonical_json) — "
        "NaN/Infinity serialize as non-standard tokens and poison "
        "content-addressed keys"
    )
    scope = ("results", "analysis")
    rationale = (
        "json.dumps happily writes NaN/Infinity as bare tokens no "
        "strict parser accepts, and nan != nan means two hashes of "
        "'the same' payload can disagree — the NaN-smuggling class "
        "fixed in PR 5.  Every serialization in the results/analysis "
        "boundary must be strict: allow_nan=False turns a leak into a "
        "loud ValueError at the write site."
    )
    example_bad = (
        "import json\n"
        "\n"
        "def encode(document):\n"
        "    return json.dumps(document, sort_keys=True)\n"
    )
    example_good = (
        "import json\n"
        "\n"
        "def encode(document):\n"
        "    return json.dumps(document, sort_keys=True, allow_nan=False)\n"
    )

    _TARGETS = frozenset({"json.dumps", "json.dump"})

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = _resolve_call(node, bindings)
            if qname not in self._TARGETS:
                continue
            strict = any(
                keyword.arg == "allow_nan"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords
            )
            if not strict:
                yield self.finding(
                    module,
                    node,
                    f"{qname}() without allow_nan=False in layer "
                    f"{module.layer!r}",
                )


@register_rule
class CollectorSwitchRule(Rule):
    """RPR007: the cyclic collector is switched in one module only."""

    code = "RPR007"
    name = "one-collector-switch"
    summary = (
        "wrap the region in repro.sim.gc_pause.gc_paused() — a second, "
        "ad-hoc switch breaks the restore-what-you-found contract"
    )
    scope = "package"
    rationale = (
        "World construction and cell execution run with the cyclic "
        "collector paused by gc_paused(), which is re-entrant and "
        "leaves a caller's own gc.disable() alone.  The collector "
        "state is process-global: an ad-hoc gc.disable()/gc.enable() "
        "pair elsewhere re-enables it in the middle of an enclosing "
        "pause (or leaves it off after an exception), and gc.freeze() "
        "or gc.set_threshold() change what every later collection "
        "walks.  Reading the collector (gc.isenabled(), "
        "gc.get_stats(), gc.collect()) stays legal everywhere."
    )
    example_bad = (
        "import gc\n"
        "\n"
        "def load_everything(paths):\n"
        "    gc.disable()\n"
        "    documents = [parse(path) for path in paths]\n"
        "    gc.enable()\n"
        "    return documents\n"
    )
    example_good = (
        "from ..sim.gc_pause import gc_paused\n"
        "\n"
        "def load_everything(paths):\n"
        "    with gc_paused():\n"
        "        return [parse(path) for path in paths]\n"
    )

    _BANNED = frozenset(
        {
            "gc.disable",
            "gc.enable",
            "gc.freeze",
            "gc.unfreeze",
            "gc.set_threshold",
        }
    )
    #: The one module allowed to switch, below the package root.
    _HOME = ("sim", "gc_pause")

    def check(self, module: Module, config: LintConfig) -> Iterator[Finding]:
        if config.module_parts(module.path) == (config.package_name, *self._HOME):
            return
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = _resolve_call(node, bindings)
            if qname in self._BANNED:
                yield self.finding(
                    module,
                    node,
                    f"collector switch {qname}() outside "
                    f"{'.'.join((config.package_name, *self._HOME))}",
                )
