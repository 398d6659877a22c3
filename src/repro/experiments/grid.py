"""Declarative experiment grids with a resumable, content-addressed cache.

The paper's evaluation — and every ablation after it — is a grid:
**protocol × scenario-with-parameter-overrides × config-overrides ×
seed**.  :class:`GridSpec` declares that grid, expands it into
:class:`GridCell` coordinates, and validates every axis up front (a
typo'd scenario parameter fails before any simulation runs).
:class:`GridRunner` executes the cells — serial or across a
``multiprocessing`` pool — and, when given a
:class:`~repro.results.store.ResultStore`, persists each completed
cell under its content-addressed key and *skips* every cell the store
already holds.  An interrupted 500-cell sweep restarts at full speed;
a repeated one costs zero executions.

This module is also the single sweep engine: the ablations run a
storeless :class:`GridRunner`, the one-seed comparison behind ``repro
figures`` / ``repro report`` runs one with or without a store
(``--store``), and a claim check over seeds is ``repro grid run
--seeds …`` followed by ``repro grid check``
(:func:`repro.analysis.check_report` on the stored cells), so
serial/parallel equivalence and blueprint reuse are implemented (and
tested) exactly once.  The store is the only persisted form of a grid:
every reader receives a :class:`GridReport`.

Usage::

    spec = GridSpec(
        base_config=small_config(),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "churn-storm:storm_session_s=120"),
        config_overrides=({}, {"ttl": 5}),
        seeds=(1, 2),
        max_queries=200,
    )
    report = GridRunner(spec, workers=4, store=ResultStore("results")).run()
    print(render_sweep_report(report))

``repro grid run|check|report|ls`` is the CLI face of this module.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import multiprocessing
import os
import threading
import time
from collections import Counter, OrderedDict
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from ..analysis.persistence import grid_cell_to_document, load_grid_cell_document
from ..overlay.blueprint import BlueprintCache, NetworkBlueprint
from ..results import (
    DEFAULT_LEASE_TTL_S,
    ClaimStore,
    CorruptResultError,
    ResultStore,
    canonical_json,
    cell_key_payload,
    cell_label,
)
from ..scenarios import make_scenario, scenario_parameters
from ..sim.config import SimulationConfig
from .runner import DEFAULT_PROTOCOL_ORDER, PROTOCOL_REGISTRY, run_protocol
from .setup import paper_config

__all__ = [
    "ScenarioSpec",
    "GridCell",
    "GridSpec",
    "GridReport",
    "GridRunner",
    "GridWorkerPool",
    "NonFiniteValueError",
    "blueprint_for",
    "execute_cells",
    "parse_scalar",
]

#: Built worlds retained per process: at most eight, and at most eight
#: §5.1 ``paper_config`` populations' worth of peers — eight worlds up
#: to 1000 peers, four at 2000, exactly one at 6000 and beyond (a world
#: over the budget is held alone).
_BLUEPRINT_CACHE_WORLDS = 8
_BLUEPRINT_CACHE_PEERS = 8000

#: Per-process blueprint cache, keyed by topology fingerprint.  Worker
#: processes live for the whole sweep (no ``maxtasksperchild``), so a
#: worker that already built a cell's topology instantiates it for
#: every later cell with the same fingerprint instead of rebuilding —
#: and ``fork``-started workers inherit everything the parent
#: prewarmed copy-on-write (see :class:`GridWorkerPool`).  The budget
#: bounds what is held; a :class:`GridRunner` releases each world from
#: this (its own process's) cache as soon as the last cell of its walk
#: on that topology resolves, so a finished world is not kept alive.
#: Looked up at call time, never bound to a local name: tests and the
#: benchmark swap or clear it.
_BLUEPRINT_CACHE = BlueprintCache(
    max_peers=_BLUEPRINT_CACHE_PEERS, max_worlds=_BLUEPRINT_CACHE_WORLDS
)


def blueprint_for(config: SimulationConfig) -> NetworkBlueprint:
    """The world a cell of ``config`` runs on: this process's cached
    blueprint for it, built only if it is not (or no longer) cached."""
    return _BLUEPRINT_CACHE.get(config)


class NonFiniteValueError(ValueError):
    """A grid value parsed to NaN/Infinity, which the grid forbids.

    Non-finite floats cannot ride through the content-addressed layer:
    ``json.dumps`` would emit the non-standard ``NaN``/``Infinity``
    tokens inside key payloads and stored documents (invalid JSON for
    strict parsers), and ``nan != nan`` silently defeats the
    duplicate-axis check.  They are rejected at parse/validation time
    with the offending axis named instead.
    """


def parse_scalar(text: str) -> Any:
    """Parse a CLI parameter value: JSON if it parses, else the string.

    ``"0.3"`` → 0.3, ``"5"`` → 5, ``"true"`` → True, ``"router"`` →
    ``"router"`` — the same coercion for scenario parameters and
    config-override values.  Values that *parse* but contain a
    non-finite float — the constants (``NaN``, ``Infinity``,
    ``-Infinity``), overflow forms such as ``1e999``, and composites
    like ``[1e999]`` — raise :class:`NonFiniteValueError` instead:
    they would poison content-addressed keys and duplicate detection
    downstream.  Text that is not valid JSON at all (``NaN-sweep``,
    ``router``) stays an ordinary string.
    """
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text
    if _first_non_finite(value) is not None:
        raise NonFiniteValueError(
            f"non-finite value {text!r} is not a valid grid value "
            "(it cannot round-trip through strict JSON, and NaN defeats "
            "duplicate detection)"
        )
    return value


def _first_non_finite(value: Any) -> float | None:
    """The first non-finite float anywhere inside ``value``, else None.

    Axis values can be JSON composites, so the check must recurse — a
    NaN hiding in a list would otherwise surface only as an opaque
    ``allow_nan=False`` failure deep inside key hashing, with no axis
    named.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return value
    if isinstance(value, (list, tuple)):
        for item in value:
            found = _first_non_finite(item)
            if found is not None:
                return found
    if isinstance(value, dict):
        for item in value.values():
            found = _first_non_finite(item)
            if found is not None:
                return found
    return None


def _check_finite(axis: str, name: str, value: Any) -> None:
    """Reject a non-finite axis value (at any depth), naming the axis."""
    found = _first_non_finite(value)
    if found is not None:
        raise ValueError(
            f"non-finite value {found!r} in {name!r} on the {axis} axis; "
            "NaN/Infinity cannot round-trip through strict JSON and NaN "
            "defeats duplicate detection"
        )


Items = tuple[tuple[str, Any], ...]

#: Stands in for the protocol while a row's key payload is encoded
#: (:meth:`GridSpec.cell_key`).  No registered protocol has this name.
_PROTOCOL_SLOT = "\x00protocol\x00"


def _as_items(mapping: Mapping[str, Any]) -> Items:
    """A mapping as a hashable, canonically ordered item tuple."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario axis entry: a registered name plus parameter overrides."""

    name: str
    params: Items = ()

    @classmethod
    def coerce(cls, value: Any) -> ScenarioSpec:
        """Normalise an axis entry to a ScenarioSpec.

        Accepts a ScenarioSpec, a string (``"name"`` or
        ``"name:key=value,key=value"``), a ``(name, params_dict)``
        pair, or a ``{"name": ..., "params": {...}}`` mapping.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Mapping):
            return cls(
                name=value["name"], params=_as_items(value.get("params", {}))
            )
        if isinstance(value, (tuple, list)) and len(value) == 2:
            name, params = value
            return cls(name=name, params=_as_items(params))
        raise ValueError(f"cannot interpret scenario axis entry {value!r}")

    @classmethod
    def parse(cls, text: str) -> ScenarioSpec:
        """Parse the CLI form ``name`` or ``name:key=value,key=value``."""
        name, _, raw = text.partition(":")
        if not raw:
            return cls(name=name)
        params: dict[str, Any] = {}
        for pair in raw.split(","):
            key, separator, value = pair.partition("=")
            if not separator or not key:
                raise ValueError(
                    f"malformed scenario parameter {pair!r} in {text!r}; "
                    "expected name:key=value[,key=value...]"
                )
            try:
                params[key.strip()] = parse_scalar(value)
            except NonFiniteValueError as error:
                raise ValueError(
                    f"scenario parameter {key.strip()!r} in {text!r}: {error}"
                ) from None
        return cls(name=name, params=_as_items(params))

    def params_dict(self) -> dict[str, Any]:
        """The parameter overrides as a plain dict."""
        return dict(self.params)

    def make(self):
        """Instantiate the scenario (validating name and parameters)."""
        return make_scenario(self.name, **self.params_dict())

    @property
    def label(self) -> str:
        """``name`` or ``name[k=v,...]``."""
        return cell_label(self.name, self.params_dict(), {})


@dataclass(frozen=True)
class GridCell:
    """One grid coordinate: protocol × scenario spec × overrides × seed."""

    protocol: str
    scenario: ScenarioSpec
    overrides: Items
    seed: int

    @property
    def label(self) -> str:
        """The cell's row label (scenario + params + config overrides)."""
        return cell_label(
            self.scenario.name, self.scenario.params_dict(), dict(self.overrides)
        )


class GridSpec:
    """A declarative protocol × scenario × config-override × seed grid.

    Every axis is validated eagerly and exhaustively — empty axes,
    duplicate entries, unknown protocols/scenarios/parameters/config
    fields all raise :class:`ValueError` naming the offending axis —
    so a 500-cell grid cannot die on cell 480 from a typo.

    Parameters
    ----------
    base_config:
        Configuration every cell starts from (default: paper §5.1).
    protocols:
        Axis 1 — registered protocol names.
    scenarios:
        Axis 2 — scenario specs: names, ``"name:key=value,..."``
        strings, ``(name, params)`` pairs, or :class:`ScenarioSpec`s.
    config_overrides:
        Axis 3 — mappings of :class:`~repro.sim.config.
        SimulationConfig` fields to values (``({},)`` = just the base
        config).  ``seed`` is forbidden here; it is its own axis.
    seeds:
        Axis 4 — master seeds, one full grid slice per seed.
    """

    def __init__(
        self,
        base_config: SimulationConfig | None = None,
        protocols: Sequence[str] = DEFAULT_PROTOCOL_ORDER,
        scenarios: Sequence[Any] = ("baseline",),
        config_overrides: Sequence[Mapping[str, Any]] = ({},),
        seeds: Sequence[int] = (20090322,),
        max_queries: int = 200,
        bucket_width: int | None = None,
    ) -> None:
        if max_queries < 1:
            raise ValueError(f"max_queries must be >= 1, got {max_queries}")
        if bucket_width is not None and bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        self.base_config = base_config if base_config is not None else paper_config()
        for name, value in self.base_config.to_dict().items():
            _check_finite("base-config", name, value)
        self.protocols = tuple(protocols)
        self.seeds = tuple(seeds)
        self.max_queries = max_queries
        self.bucket_width = (
            bucket_width if bucket_width is not None else max(1, max_queries // 8)
        )

        self._check_axis_not_empty("protocol", self.protocols)
        self._check_axis_not_empty("scenario", tuple(scenarios))
        self._check_axis_not_empty("config-override", tuple(config_overrides))
        self._check_axis_not_empty("seed", self.seeds)

        for name in self.protocols:
            if name not in PROTOCOL_REGISTRY:
                raise ValueError(
                    f"unknown protocol {name!r} on the protocol axis; "
                    f"known: {sorted(PROTOCOL_REGISTRY)}"
                )
        self._check_axis_unique("protocol", self.protocols)

        self.scenarios: tuple[ScenarioSpec, ...] = tuple(
            ScenarioSpec.coerce(entry) for entry in scenarios
        )
        for spec in self.scenarios:
            for param, value in spec.params:
                _check_finite("scenario", f"{spec.name}:{param}", value)
            try:
                spec.make()
            except ValueError as error:
                raise ValueError(f"scenario axis: {error}") from error
        self._check_axis_unique(
            "scenario", tuple(spec.label for spec in self.scenarios)
        )

        self.config_overrides: tuple[Items, ...] = tuple(
            self._check_override(dict(overrides)) for overrides in config_overrides
        )
        self._check_axis_unique("config-override", self.config_overrides)

        if not all(isinstance(seed, int) for seed in self.seeds):
            raise ValueError(f"seeds must be integers, got {list(self.seeds)}")
        self._check_axis_unique("seed", self.seeds)
        # (scenario, overrides, seed) → the protocol-independent part
        # of the row's key payload (see _row), and the same payload
        # encoded and hashed up to the protocol (see cell_key).
        self._rows: dict[tuple[ScenarioSpec, Items, int], dict[str, Any]] = {}
        self._row_hashes: dict[
            tuple[ScenarioSpec, Items, int], tuple[Any, bytes]
        ] = {}

    @staticmethod
    def _check_axis_not_empty(axis: str, values: tuple[Any, ...]) -> None:
        if not values:
            raise ValueError(f"the {axis} axis is empty")

    @staticmethod
    def _check_axis_unique(axis: str, values: tuple[Any, ...]) -> None:
        seen: set = set()
        duplicates = []
        for value in values:
            if value in seen and value not in duplicates:
                duplicates.append(value)
            seen.add(value)
        if duplicates:
            raise ValueError(
                f"duplicate entries on the {axis} axis would produce "
                f"duplicate cells: {duplicates!r}"
            )

    def _check_override(self, overrides: dict[str, Any]) -> Items:
        known = set(self.base_config.to_dict())
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown config field(s) {unknown} on the config-override "
                f"axis; known fields: {sorted(known)}"
            )
        if "seed" in overrides:
            raise ValueError(
                "the config-override axis may not set 'seed'; "
                "seeds are their own axis"
            )
        for name, value in overrides.items():
            _check_finite("config-override", name, value)
        # Trial replace: a bad value fails now with the field named,
        # not 480 cells into the grid.
        self.base_config.replace(**overrides)
        return _as_items(overrides)

    @property
    def num_cells(self) -> int:
        """Grid size before any store deduplication."""
        return (
            len(self.protocols)
            * len(self.scenarios)
            * len(self.config_overrides)
            * len(self.seeds)
        )

    def expand(self) -> list[GridCell]:
        """The grid in its deterministic enumeration order.

        Execution does not walk this order directly: runners regroup it
        topology by topology (:meth:`by_topology`).
        """
        return [
            GridCell(
                protocol=protocol, scenario=scenario, overrides=overrides, seed=seed
            )
            for scenario in self.scenarios
            for overrides in self.config_overrides
            for protocol in self.protocols
            for seed in self.seeds
        ]

    def cell_config(self, cell: GridCell) -> SimulationConfig:
        """The effective configuration of one cell (overrides + seed)."""
        config = self.base_config
        if cell.overrides:
            config = config.replace(**dict(cell.overrides))
        return config.replace(seed=cell.seed)

    def cell_build_config(self, cell: GridCell) -> SimulationConfig:
        """The scenario-configured effective config of one cell.

        This is the configuration the cell's world is built from — the
        blueprint-cache key — so scenarios that do touch topology (e.g.
        cold-start's sparser shares) key their own builds.
        """
        return cell.scenario.make().configure(self.cell_config(cell))

    def cell_key(self, cell: GridCell) -> str:
        """The content-addressed store key of one cell.

        ``results.keys.cell_key(self.cell_key_payload(cell))``, byte for
        byte, but the cells of a row differ in their protocol alone: the
        row's payload is encoded once with a placeholder protocol and
        split there, the SHA-256 of the head is kept, and each cell
        copies that state and feeds it its encoded protocol and the
        tail.
        """
        row_key = (cell.scenario, cell.overrides, cell.seed)
        row_hash = self._row_hashes.get(row_key)
        if row_hash is None:
            payload = self.cell_key_payload(cell)
            payload["protocol"] = _PROTOCOL_SLOT
            pieces = canonical_json(payload).split(canonical_json(_PROTOCOL_SLOT))
            if len(pieces) != 2:
                raise ValueError(
                    f"the key payload of {cell.label!r} holds the reserved "
                    f"string {_PROTOCOL_SLOT!r}"
                )
            head, tail = pieces
            row_hash = self._row_hashes[row_key] = (
                hashlib.sha256(head.encode("utf-8")),
                tail.encode("utf-8"),
            )
        digest = row_hash[0].copy()
        digest.update(canonical_json(cell.protocol).encode("utf-8") + row_hash[1])
        return digest.hexdigest()

    def cell_key_payload(self, cell: GridCell) -> dict[str, Any]:
        """Everything that determines the cell's results, as a fresh dict.

        Scenario parameters enter the payload *resolved* — explicit
        overrides merged over the instantiated scenario's attribute
        values — so changing a scenario constructor default changes
        the key and invalidates stale cached cells (and, conversely,
        spelling out a default explicitly hits the same cache entry as
        omitting it, since the results are identical).
        """
        return cell_key_payload(
            protocol=cell.protocol,
            scenario_name=cell.scenario.name,
            max_queries=self.max_queries,
            bucket_width=self.bucket_width,
            **self._row(cell),
        )

    def _row(self, cell: GridCell) -> dict[str, Any]:
        """What every protocol of ``cell``'s row shares of its key payload.

        The effective ``config`` dict, the resolved ``scenario_params``
        and the ``topology_fingerprint`` of the scenario-configured
        config, computed once per (scenario, overrides, seed) and held
        on this spec: only ``"protocol"`` differs between the cells of
        a row.
        """
        row_key = (cell.scenario, cell.overrides, cell.seed)
        row = self._rows.get(row_key)
        if row is None:
            effective = self.cell_config(cell)
            scenario = cell.scenario.make()
            resolved = dict(cell.scenario.params)
            for name in scenario_parameters(cell.scenario.name):
                if name not in resolved and hasattr(scenario, name):
                    resolved[name] = getattr(scenario, name)
            row = self._rows[row_key] = {
                "config": effective.to_dict(),
                "scenario_params": resolved,
                "topology_fingerprint": scenario.configure(
                    effective
                ).topology_fingerprint(),
            }
        return row

    def by_topology(self, cells: Sequence[GridCell]) -> list[GridCell]:
        """``cells`` regrouped so each distinct topology is one run.

        The one execution order: groups appear in the order their
        fingerprint first does, and cells keep their relative order
        inside a group — so a blueprint cache of any budget builds
        each world once, and the ``len(protocols)`` chunks of a row
        stay together.  Results do not depend on execution order.
        """
        groups: dict[str, list[GridCell]] = {}
        for cell in cells:
            fingerprint = self._row(cell)["topology_fingerprint"]
            groups.setdefault(fingerprint, []).append(cell)
        return [cell for group in groups.values() for cell in group]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able description (``from_dict`` restores it)."""
        return {
            "base_config": self.base_config.to_dict(),
            "protocols": list(self.protocols),
            "scenarios": [
                {"name": spec.name, "params": spec.params_dict()}
                for spec in self.scenarios
            ],
            "config_overrides": [dict(items) for items in self.config_overrides],
            "seeds": list(self.seeds),
            "max_queries": self.max_queries,
            "bucket_width": self.bucket_width,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> GridSpec:
        """Rebuild a spec from :meth:`to_dict` output (e.g. a spec file)."""
        base = doc.get("base_config")
        return cls(
            base_config=SimulationConfig(**base) if base else None,
            protocols=doc.get("protocols", DEFAULT_PROTOCOL_ORDER),
            scenarios=doc.get("scenarios", ("baseline",)),
            config_overrides=doc.get("config_overrides", ({},)),
            seeds=doc.get("seeds", (20090322,)),
            max_queries=doc.get("max_queries", 200),
            bucket_width=doc.get("bucket_width"),
        )


@dataclass
class GridReport:
    """Every cell's results plus the spec and cache accounting.

    The report shape :func:`repro.analysis.aggregate_sweep` /
    :func:`repro.analysis.render_sweep_report` read: ``scenarios``
    exposes *row labels* (scenario + params + overrides), one per
    (scenario, config-override) combination.
    """

    spec: GridSpec
    runs: dict[GridCell, Any] = field(default_factory=dict)
    executed: int = 0
    cached: int = 0
    #: Stored documents that failed to parse, were quarantined by the
    #: store, and re-executed (crash/corruption recovery accounting).
    quarantined: int = 0

    @property
    def base_config(self) -> SimulationConfig:
        """The spec's base configuration."""
        return self.spec.base_config

    @property
    def protocols(self) -> tuple[str, ...]:
        """The protocol axis."""
        return self.spec.protocols

    @property
    def seeds(self) -> tuple[int, ...]:
        """The seed axis."""
        return self.spec.seeds

    @property
    def max_queries(self) -> int:
        """Per-cell query horizon."""
        return self.spec.max_queries

    @property
    def bucket_width(self) -> int:
        """Per-cell figure bucket width."""
        return self.spec.bucket_width

    @property
    def num_cells(self) -> int:
        """How many cells the report holds."""
        return len(self.runs)

    @property
    def scenarios(self) -> tuple[str, ...]:
        """Row labels, one per (scenario spec, config override)."""
        return tuple(self._rows)

    @cached_property
    def _rows(self) -> OrderedDict[str, tuple[ScenarioSpec, Items]]:
        # label → (scenario spec, overrides), built once: the spec is
        # immutable, and aggregate/render call run_for per cell.
        return OrderedDict(
            (
                cell_label(spec.name, spec.params_dict(), dict(overrides)),
                (spec, overrides),
            )
            for spec in self.spec.scenarios
            for overrides in self.spec.config_overrides
        )

    def run_for(self, protocol: str, scenario: str, seed: int) -> Any:
        """The result of one cell (``scenario`` = its row label)."""
        try:
            spec, overrides = self._rows[scenario]
        except KeyError:
            raise KeyError(f"no grid row labelled {scenario!r}") from None
        return self.runs[
            GridCell(
                protocol=protocol, scenario=spec, overrides=overrides, seed=seed
            )
        ]

    def seed_runs(self, protocol: str, scenario: str) -> list[Any]:
        """One (row label, protocol) row: its runs across all seeds."""
        return [
            self.run_for(protocol, scenario, seed) for seed in self.spec.seeds
        ]


def _note(
    progress: Callable[[str], None] | None,
    done: int,
    total: int,
    cell: GridCell,
) -> None:
    if progress is not None:
        progress(
            f"[{done}/{total}] {cell.label} × {cell.protocol} "
            f"(seed {cell.seed})"
        )


def _run_cell(
    task: tuple[GridCell, SimulationConfig, int, int]
) -> tuple[GridCell, Any]:
    """Execute one grid cell (top-level so worker processes can pickle it)."""
    cell, base_config, max_queries, bucket_width = task
    config = base_config
    if cell.overrides:
        config = config.replace(**dict(cell.overrides))
    config = config.replace(seed=cell.seed)
    scenario = cell.scenario.make()
    # Key the cache by the *effective* configuration so scenarios that
    # do touch topology (e.g. cold-start's sparser shares) still share
    # one build across the protocols of their row.  In a fork worker
    # this is a pure hit on the parent's prewarmed cache; otherwise the
    # world is built here at most once per fingerprint per process.
    blueprint = blueprint_for(scenario.configure(config))
    run = run_protocol(
        config,
        cell.protocol,
        max_queries=max_queries,
        bucket_width=bucket_width,
        scenario=scenario,
        blueprint=blueprint,
    )
    return cell, run


class GridWorkerPool:
    """A persistent worker pool for grid cells, preferring ``fork``.

    Where the platform offers the ``fork`` start method, the pool is
    created *after* ``prebuild`` worlds are built into the process-wide
    :data:`_BLUEPRINT_CACHE`, so every worker inherits the immutable
    substrates — underlay, catalog, pristine overlay — copy-on-write
    at fork time: one build per distinct topology fingerprint in the
    parent, zero builds (and zero pickling of the world) in the
    workers.  The pool then outlives any number of :meth:`imap` rounds,
    which is what lets the claim-aware store loop dispatch batch after
    batch without re-forking.

    Platforms without ``fork`` fall back to the default start method;
    ``prebuild`` is skipped there (a spawned worker re-imports this
    module with an empty cache) and each worker instead builds lazily
    into its own cache, at most once per fingerprint per worker.

    The parent's prewarmed copies are only the fork's source: a
    :class:`GridRunner` releases each from the parent's cache when its
    topology's last cell resolves, while every worker keeps its own
    (inherited or lazily built) worlds, within the cache budget, until
    the pool closes.
    """

    def __init__(
        self,
        workers: int,
        prebuild: Sequence[SimulationConfig] = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        methods = multiprocessing.get_all_start_methods()
        self.start_method: str | None = (
            "fork" if "fork" in methods else None
        )
        self.prebuilt = (
            _BLUEPRINT_CACHE.prewarm(prebuild)
            if self.shares_parent_memory
            else 0
        )
        context = multiprocessing.get_context(self.start_method)
        self._pool = context.Pool(processes=workers)

    @property
    def shares_parent_memory(self) -> bool:
        """Whether workers inherit the parent's blueprint cache (fork)."""
        return self.start_method == "fork"

    def imap(
        self,
        tasks: Sequence[tuple[GridCell, SimulationConfig, int, int]],
        chunksize: int = 1,
    ) -> Iterator[tuple[GridCell, Any]]:
        """Dispatch cell tasks, yielding ``(cell, run)`` as they finish."""
        return self._pool.imap(_run_cell, tasks, chunksize=chunksize)

    def map(self, fn: Callable, items: Sequence[Any]) -> list[Any]:
        """Run an arbitrary picklable function across the workers."""
        return self._pool.map(fn, items)

    def close(self) -> None:
        """Tear the workers down (idempotent)."""
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> GridWorkerPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _capped_prebuild(
    spec: GridSpec, cells: Sequence[GridCell]
) -> list[SimulationConfig]:
    """Up to one cache budget's worth of distinct build configs.

    ``cells`` is everything still to run, not one claimed batch (which
    in topology order covers a single world).  Collected in dispatch
    order until the next distinct world no longer fits the cache next
    to the ones before it (:meth:`BlueprintCache.fits`; the first
    always does), so the common few-fingerprint grid ships every world
    to the workers at fork time, while a 100-seed grid neither
    serialises 100 builds in the parent (workers idling) nor has
    prewarm evict what it just built — topologies past the budget
    build lazily per worker, exactly as before the shared substrate
    existed.  Fingerprints come from the spec's per-row memo; only the
    chosen cells instantiate their scenario.
    """
    prebuild: dict[str, SimulationConfig] = {}
    for cell in cells:
        fingerprint = spec._row(cell)["topology_fingerprint"]
        if fingerprint not in prebuild:
            config = spec.cell_build_config(cell)
            if not _BLUEPRINT_CACHE.fits([*prebuild.values(), config]):
                break
            prebuild[fingerprint] = config
    return list(prebuild.values())


def execute_cells(
    spec: GridSpec,
    cells: Sequence[GridCell],
    workers: int = 1,
    progress: Callable[[str], None] | None = None,
    progress_offset: int = 0,
    progress_total: int | None = None,
    pool: GridWorkerPool | None = None,
) -> Iterator[tuple[GridCell, Any]]:
    """Execute ``cells`` and yield ``(cell, run)`` in completion order.

    The one sweep engine: every cell is an isolated, seed-deterministic
    :func:`~repro.experiments.runner.run_protocol` call, so fanning the
    cells over a ``multiprocessing`` pool cannot change any result —
    ``workers=1`` and ``workers=N`` are cell-for-cell identical
    (``tests/test_determinism.py``), and neither can the order: cells
    always run topology by topology (:meth:`GridSpec.by_topology`) and
    instantiate their world from the process's blueprint cache, so a
    serial run builds each distinct world exactly once at any cache
    budget.  Across workers, up to one cache budget's worth of
    distinct topologies is prebuilt in the parent and inherited
    copy-on-write by fork workers; anything past that budget (and
    everything on platforms without fork) builds lazily, at most once
    per fingerprint per worker — results are byte-identical either way.
    The worlds stay cached when the cells are done: releasing them is
    the caller's part (:class:`GridRunner` releases each as the last
    cell of its topology resolves).

    ``pool`` dispatches through a caller-owned persistent
    :class:`GridWorkerPool` instead of forking a fresh one for this
    call — the claim-aware store loop runs many small batches on one
    pool, whose fork workers inherit the blueprints its owner
    prewarmed.

    ``progress_offset`` / ``progress_total`` re-anchor the ``[done/
    total]`` progress prefix when these cells are one batch of a larger
    grid (the claim-aware store loop executes a few cells at a time
    but should still report grid-wide progress).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = spec.by_topology(cells)
    tasks = [
        (cell, spec.base_config, spec.max_queries, spec.bucket_width)
        for cell in cells
    ]
    total = progress_total if progress_total is not None else len(tasks)
    if pool is not None:
        for done, (cell, run) in enumerate(
            pool.imap(tasks), start=1 + progress_offset
        ):
            _note(progress, done, total, cell)
            yield cell, run
        return
    workers = min(workers, len(tasks)) if tasks else 1
    if workers == 1:
        for done, task in enumerate(tasks, start=1 + progress_offset):
            cell, run = _run_cell(task)
            _note(progress, done, total, cell)
            yield cell, run
    else:
        # One chunk per row: the protocols of a row share a world, so
        # they land on the worker that already holds (or builds) it.
        with GridWorkerPool(
            workers, prebuild=_capped_prebuild(spec, cells)
        ) as ephemeral:
            for done, (cell, run) in enumerate(
                ephemeral.imap(tasks, chunksize=len(spec.protocols)),
                start=1 + progress_offset,
            ):
                _note(progress, done, total, cell)
                yield cell, run


class _HeartbeatTicker:
    """Background re-stamper for the claims a runner currently holds.

    Heartbeats used to fire only when a batch mate *completed*, so one
    cell running longer than the lease TTL went silent mid-execution
    and a thief could legally reclaim (and re-execute) it.  This
    daemon thread re-stamps every held claim each ``interval_s`` of
    wall time, so an in-flight claim stays live for exactly as long as
    its runner does — staleness again means death, not slowness.

    :meth:`release` drops the key and releases the claim under the
    same lock the tick loop heartbeats under: a heartbeat landing
    after a release would otherwise recreate the claim file and leak
    it forever.
    """

    def __init__(self, claims: ClaimStore, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self._claims = claims
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._held: set[str] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def hold(self, key: str) -> None:
        """Start heartbeating ``key`` (the caller just claimed it).

        The first hold starts the thread, so a pass that claims nothing
        (every cell already stored) starts none.
        """
        with self._lock:
            self._held.add(key)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="claim-heartbeat", daemon=True
                )
                self._thread.start()

    def release(self, key: str) -> None:
        """Atomically stop heartbeating ``key`` and release its claim."""
        with self._lock:
            self._held.discard(key)
            self._claims.release(key)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            with self._lock:
                for key in tuple(self._held):
                    # A lost claim (stolen after a suspend longer than
                    # the TTL) returns False; execution finishes anyway
                    # — results are deterministic — so just stop
                    # touching the thief's file.
                    if not self._claims.heartbeat(key):
                        self._held.discard(key)


class GridRunner:
    """Run a :class:`GridSpec`, resuming from a result store if given.

    Parameters
    ----------
    spec:
        The grid to run.
    workers:
        Process fan-out, forwarded to :func:`execute_cells`.  With a
        store and ``workers > 1``, claimed batches are fanned across
        one persistent fork :class:`GridWorkerPool` whose workers
        inherit parent-built blueprints copy-on-write (see
        :meth:`_ensure_pool`).
    reuse_builds:
        Accepted and unread: blueprint reuse is how every cell runs.
    store:
        Optional :class:`~repro.results.store.ResultStore`.  Cells
        whose key the store already holds are *not executed* — their
        stored document is loaded instead — and every freshly executed
        cell is persisted on completion.  To keep a resumed grid's
        aggregate byte-identical to an uninterrupted one, **all** runs
        in the report (fresh and cached alike) are normalised through
        the document round-trip when a store is attached.

        With a store, every execution is guarded by a lease claim
        (:class:`~repro.results.claims.ClaimStore`), so N runner
        processes pointed at the same store and spec partition the
        grid dynamically with zero duplicate executions: each pending
        cell is **skip** (already stored) → **claim** (exclusive
        create) → **execute** → **commit** (atomic put) → **release**.
        Cells claimed by another live runner are revisited until that
        runner commits them (they land in this report as cached) or
        its lease goes stale (reclaimed and executed here — crash
        recovery of orphaned claims).
    runner_id:
        This runner's identity in claim files (default: host-pid-nonce).
    lease_ttl_s:
        How long this runner's claims stay valid without a heartbeat.
    poll_interval_s:
        Sleep between passes while every remaining cell is claimed by
        other live runners.
    heartbeat_interval_s:
        How often the background ticker re-stamps the claims this
        runner holds *while their cells execute* (default: a quarter
        of the lease TTL), so a single cell outliving the TTL is never
        stolen mid-flight.
    clock:
        Time source for claims (injectable for lease tests).
    profile_dir:
        Optional directory for cProfile artifacts: each executed batch
        dumps ``<runner>-batch<N>.pstats`` there.  With ``workers > 1``
        the profile covers only this parent process (dispatch, document
        serialisation, commits) — the simulations run in pool workers;
        profile with ``workers=1`` to see simulation internals.
    """

    def __init__(
        self,
        spec: GridSpec,
        workers: int = 1,
        reuse_builds: bool = False,
        store: ResultStore | None = None,
        runner_id: str | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = 0.5,
        heartbeat_interval_s: float | None = None,
        clock: Callable[[], float] = time.time,
        profile_dir: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if poll_interval_s < 0:
            raise ValueError(
                f"poll_interval_s must be >= 0, got {poll_interval_s}"
            )
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be > 0, got {heartbeat_interval_s}"
            )
        self.spec = spec
        self.workers = workers
        self.store = store
        self.profile_dir = Path(profile_dir) if profile_dir is not None else None
        self._profiled_batches = 0
        # Topology fingerprint → cells of the current run not resolved
        # yet (see _resolve).
        self._unresolved: Counter[str] = Counter()
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = (
            heartbeat_interval_s
            if heartbeat_interval_s is not None
            else max(lease_ttl_s / 4.0, 0.05)
        )
        self.claims: ClaimStore | None = (
            ClaimStore(
                store.root,
                runner_id=runner_id,
                lease_ttl_s=lease_ttl_s,
                workers=workers,
                clock=clock,
                # Share the store's backend so claims and results live
                # in the same place (same claims/ directory, or the
                # same SQLite database and connection).
                backend=store.backend,
            )
            if store is not None
            else None
        )

    @property
    def runner_id(self) -> str | None:
        """This runner's claim identity (None when storeless)."""
        return self.claims.runner_id if self.claims is not None else None

    def run(
        self, progress: Callable[[str], None] | None = None
    ) -> GridReport:
        """Execute every missing cell and assemble the full report.

        Each world is released from the process's blueprint cache when
        the last cell on it resolves (:meth:`_resolve`), so the run ends
        holding none of the worlds it walked.
        """
        cells = self.spec.expand()
        report = GridReport(spec=self.spec)
        self._unresolved = Counter(
            self.spec._row(cell)["topology_fingerprint"] for cell in cells
        )
        if self.store is None:
            with self._profiled_batch():
                for cell, run in execute_cells(
                    self.spec,
                    cells,
                    workers=self.workers,
                    progress=progress,
                ):
                    report.executed += 1
                    self._resolve(report, cell, run)
            return report
        return self._run_with_store(cells, report, progress)

    def _resolve(self, report: GridReport, cell: GridCell, run: Any) -> None:
        """Record ``cell``'s run; release its world if it was the last
        unresolved cell on that topology.

        Executed and stored cells alike count, and a cell carried to a
        later pass (claimed by another runner) counts only when it
        resolves there — so a world leaves this process's cache exactly
        when no cell of this run will ask for it again.
        """
        report.runs[cell] = run
        fingerprint = self.spec._row(cell)["topology_fingerprint"]
        left = self._unresolved[fingerprint] - 1
        if left:
            self._unresolved[fingerprint] = left
        else:
            del self._unresolved[fingerprint]
            _BLUEPRINT_CACHE.release(fingerprint)

    @contextmanager
    def _profiled_batch(self) -> Iterator[None]:
        """Profile the enclosed batch into ``profile_dir`` (no-op without)."""
        if self.profile_dir is None:
            yield
            return
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self._profiled_batches += 1
            who = self.runner_id or f"grid-{os.getpid()}"
            self.profile_dir.mkdir(parents=True, exist_ok=True)
            profile.dump_stats(
                self.profile_dir / f"{who}-batch{self._profiled_batches:03d}.pstats"
            )

    def _put_telemetry_sidecar(self, key: str, run: Any) -> None:
        """Persist a freshly executed cell's telemetry next to its document.

        Best-effort by design: the sidecar is operational metadata
        (wall-clock values, runner identity) outside the scientific
        result, so a failed write must never fail the committed cell.
        """
        telemetry = getattr(run, "telemetry", None)
        if telemetry is None:
            return
        sidecar = {
            "kind": "telemetry-sidecar",
            "format_version": 1,
            "key": key,
            "runner_id": self.runner_id,
            "workers": self.workers,
            "completed_unix": time.time(),
            "telemetry": telemetry.to_dict(),
        }
        try:
            self.store.put_sidecar(key, sidecar)
        except (OSError, ValueError):
            pass

    # -- the claim-aware store path ------------------------------------

    def _run_with_store(
        self,
        cells: list[GridCell],
        report: GridReport,
        progress: Callable[[str], None] | None,
    ) -> GridReport:
        """The skip → claim → execute → commit → release loop.

        Each pass walks the still-unresolved cells topology by
        topology (:meth:`GridSpec.by_topology`, so consecutive claims
        share a built world): stored ones are loaded, unclaimed ones
        are claimed (at most one execution batch per pass, so N
        runners interleave instead of one runner pre-claiming the
        world), and foreign-claimed ones are carried to the next pass.  A pass that resolves nothing means every
        remaining cell is claimed by another live runner — sleep
        briefly and look again; their commits arrive as cache hits,
        their crashes as stale leases this runner reclaims.

        Two background resources live from the first claim to the end
        of the loop: the thread of a :class:`_HeartbeatTicker` keeping
        every held claim live while its cell executes, and (for
        ``workers > 1``) one persistent :class:`GridWorkerPool` that
        every claimed batch is fanned across.  A pass over a fully
        stored grid starts neither.
        """
        assert self.claims is not None
        self.store.clean_tmp()
        self.claims.prune(self.store.has)
        keys = {cell: self.spec.cell_key(cell) for cell in cells}
        batch_size = self._claim_batch_size()
        pending = self.spec.by_topology(cells)
        pool: GridWorkerPool | None = None
        ticker = _HeartbeatTicker(self.claims, self.heartbeat_interval_s)
        try:
            while pending:
                resolved = 0
                claimed: list[GridCell] = []
                deferred: list[GridCell] = []
                try:
                    for index, cell in enumerate(pending):
                        if len(claimed) >= batch_size:
                            deferred.extend(pending[index:])
                            break
                        if self._load_stored(cell, keys[cell], report, progress):
                            resolved += 1
                        elif self.claims.try_claim(keys[cell]):
                            # Double-check under the claim: another runner
                            # may have committed (and released) this cell
                            # between our store check and the claim.
                            # Holding the claim, a stored document is
                            # final — take the cache hit instead of
                            # executing twice.
                            if self._load_stored(
                                cell, keys[cell], report, progress
                            ):
                                self.claims.release(keys[cell])
                                resolved += 1
                            else:
                                claimed.append(cell)
                                ticker.hold(keys[cell])
                        else:
                            deferred.append(cell)
                    if claimed:
                        # Pool creation builds worlds in the parent —
                        # expensive enough that dying inside it (Ctrl-C,
                        # MemoryError) must release the batch too, so it
                        # shares the claim guard below.
                        pool = self._ensure_pool(pool, claimed, deferred)
                except BaseException:
                    # Dying between claiming and executing (disk error,
                    # KeyboardInterrupt) must not strand the claims until
                    # their lease times out on other runners.
                    for cell in claimed:
                        ticker.release(keys[cell])
                    raise
                else:
                    resolved += self._execute_claimed(
                        claimed, keys, report, progress, pool, ticker
                    )
                pending = deferred
                if pending and not resolved:
                    if progress is not None:
                        progress(
                            f"waiting: {len(pending)} cell(s) claimed by "
                            "other runners"
                        )
                    time.sleep(self.poll_interval_s)
        finally:
            ticker.stop()
            if pool is not None:
                pool.close()
        return report

    def _claim_batch_size(self) -> int:
        """How many cells to claim per pass.

        Small batches = fine-grained dynamic partitioning between
        runners; large batches = better utilisation of this runner's
        persistent pool.  Serial runners claim one cell at a time —
        maximally fair; parallel runners claim a couple of cells per
        worker so no pool worker sits idle between passes.
        """
        return 1 if self.workers == 1 else self.workers * 2

    def _ensure_pool(
        self,
        pool: GridWorkerPool | None,
        claimed: list[GridCell],
        deferred: list[GridCell],
    ) -> GridWorkerPool | None:
        """The persistent pool for claimed batches, forked on first use.

        Created lazily on the first batch that actually executes (a
        warm store never pays for a pool), after up to one cache
        budget's worth of the distinct topologies among the
        pending cells (the ``claimed`` batch first, then everything
        ``deferred`` to later passes) is built into the parent's
        blueprint cache — fork workers inherit those worlds
        copy-on-write.  The one pool then serves every later batch: a
        topology the workers did not inherit is built lazily, at most
        once per worker, which keeps many-seed grids parallel instead
        of stalling each batch behind serial parent builds and a
        re-fork.
        """
        if self.workers == 1 or pool is not None:
            return pool
        return GridWorkerPool(
            self.workers,
            prebuild=_capped_prebuild(self.spec, claimed + deferred),
        )

    def _load_stored(
        self,
        cell: GridCell,
        key: str,
        report: GridReport,
        progress: Callable[[str], None] | None,
    ) -> bool:
        """Load ``cell`` from the store if present; True on success.

        A corrupt document counts as absent: the store quarantines it,
        the incident is reported, and the caller claims the cell for
        re-execution.
        """
        try:
            document = self.store.get(key)
        except KeyError:
            # Not stored — never was, or a concurrent reader quarantined
            # it or an operator deleted it since the last look.
            return False
        except CorruptResultError as error:
            report.quarantined += 1
            if progress is not None:
                progress(f"quarantined: {error}")
            return False
        try:
            run = load_grid_cell_document(document)
        except (KeyError, ValueError, TypeError):
            # Parsed as JSON but not as a grid-cell document (missing
            # or mangled fields, wrong kind, alien format version):
            # same recovery as byte-level corruption — rename it aside
            # and re-execute the cell.
            return self._quarantine_malformed(key, report, progress)
        report.cached += 1
        self._resolve(report, cell, run)
        return True

    def _quarantine_malformed(
        self,
        key: str,
        report: GridReport,
        progress: Callable[[str], None] | None,
    ) -> bool:
        """Quarantine a document that parsed but failed to restore."""
        quarantined_to = self.store.quarantine(key)
        report.quarantined += 1
        if progress is not None:
            # A path on file-backed stores, an opaque token on row-backed.
            where = (
                getattr(quarantined_to, "name", quarantined_to)
                if quarantined_to is not None
                else "already removed"
            )
            progress(
                f"quarantined: malformed grid-cell document for key "
                f"{key[:12]}…; {where}"
            )
        return False

    def _execute_claimed(
        self,
        claimed: list[GridCell],
        keys: dict[GridCell, str],
        report: GridReport,
        progress: Callable[[str], None] | None,
        pool: GridWorkerPool | None,
        ticker: _HeartbeatTicker,
    ) -> int:
        """Execute the cells this runner holds claims on, commit each.

        Workers (when ``pool`` is given) only simulate: every ``(cell,
        run)`` comes back to this parent process, which alone runs the
        commit protocol — durable ``put`` first, release second — so
        the PR-4 invariants survive ``--workers`` unchanged.  Puts go
        through :meth:`ResultStore.batch` (one fsync per claimed batch
        on the sqlite backend, a no-op on json), and every claim is
        released only *after* the batch context exits — i.e. after its
        cell's document is durably committed on every backend — so a
        crash mid-batch leaves stored-but-claimed cells (cleared by
        the next runner's :meth:`ClaimStore.prune`), never
        released-but-unstored ones.  The ``ticker`` keeps every
        still-running claim live in the background, so neither a long
        batch nor a single long cell can go stale mid-flight.
        """
        held = {keys[cell] for cell in claimed}
        committed: list[str] = []
        done = 0
        try:
            with self._profiled_batch():
                with self.store.batch():
                    for cell, run in execute_cells(
                        self.spec,
                        claimed,
                        workers=self.workers,
                        progress=progress,
                        progress_offset=report.executed + report.cached,
                        progress_total=self.spec.num_cells,
                        pool=pool,
                    ):
                        key = keys[cell]
                        document = grid_cell_to_document(
                            cell,
                            run,
                            key=key,
                            max_queries=self.spec.max_queries,
                            bucket_width=self.spec.bucket_width,
                            topology_fingerprint=self.spec._row(cell)[
                                "topology_fingerprint"
                            ],
                        )
                        self.store.put(key, document)
                        self._put_telemetry_sidecar(key, run)
                        committed.append(key)
                        report.executed += 1
                        self._resolve(
                            report, cell, load_grid_cell_document(document)
                        )
                        done += 1
            # The batch is durable: now (and only now) stop
            # heartbeating and hand the finished cells back.
            for key in committed:
                ticker.release(key)
                held.discard(key)
        finally:
            # Interrupted mid-batch (exception, KeyboardInterrupt):
            # buffered puts were still flushed by ``batch()`` on the
            # way out, so every key in ``held`` is either committed or
            # never executed — drop the claims we still hold so a
            # surviving runner can take the cells immediately instead
            # of after a stale TTL.
            for key in held:
                ticker.release(key)
        return done
