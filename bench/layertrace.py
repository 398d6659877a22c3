"""Layer tracing from outside the program: spans around public callables.

The benchmark's traced pass wraps each layer's *public* callables at
class / module level, keeps a span stack, and attributes to every span
its **self time** — its duration minus the part its child spans cover —
so the self times of all spans sum to the traced wall clock and a
regression names its layer.  Nothing under ``src/`` is edited; every
wrapper is removed again by :meth:`LayerTracer.uninstall`, which
restores the exact original objects (``Simulator.run is`` the original).

Two kinds of span:

- **leaf** spans are hot (one per event, message, filter test): they are
  aggregated in place as ``calls`` + ``self seconds`` under a metric
  prefix such as ``overlay.send``;
- **phase** spans are rare (one per build / instantiate / run_protocol /
  document / put / get …): they are aggregated the same way *and* kept
  individually with an id and the id of the enclosing phase span, and
  written as JSONL by :meth:`LayerTracer.write_spans`.

Event callbacks are spans too.  The engine, the overlay and the
periodic process receive callables from the layers above them
(``Simulator.schedule_at``, ``P2PNetwork.send``, ``PeriodicProcess``);
the wrappers of those three entry points hand the engine a dispatcher
that opens a ``<layer>.handlers`` span named after the package that
defined the callable.  That is what makes ``sim.run``'s self time the
heap + dispatch cost only, and what attributes a protocol's message
handlers to ``protocols`` / ``core`` rather than to the event loop.

Tracing is inert: wrappers only time and forward.  The benchmark proves
it on every traced pass by comparing result digests with the untraced
pass over the same cells.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Any

#: (metric prefix, module, class or None for a module-level function,
#: attribute names, kind).  ``quiet`` leaves add self time but no call:
#: ``Simulator.schedule`` only forwards to ``schedule_at``, and
#: ``to_bloom_filter`` is the first half of a Bloom push whose call is
#: counted at ``DeltaCodec.encode``.
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...], str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator", ("run",), "leaf"),
    ("sim.schedule", "repro.sim.engine", "Simulator", ("schedule",), "quiet"),
    ("overlay.build", "repro.overlay.blueprint", "NetworkBlueprint", ("build",), "phase"),
    ("overlay.instantiate", "repro.overlay.blueprint", "NetworkBlueprint", ("instantiate",), "phase"),
    ("net.latency", "repro.net.underlay", "Underlay", ("latency_s", "latency_ms", "rtt_ms"), "leaf"),
    ("bloom.encode", "repro.bloom.counting", "CountingBloomFilter", ("to_bloom_filter",), "quiet"),
    ("bloom.contains", "repro.bloom.bloom_filter", "BloomFilter", ("contains_all",), "leaf"),
    ("files.add", "repro.files.storage", "FileStore", ("add", "add_many", "clear"), "leaf"),
    ("files.match", "repro.files.storage", "FileStore", ("first_match", "matching_files"), "leaf"),
    ("protocols.select", "repro.protocols.flooding", "FloodingProtocol", ("select_forward_targets",), "leaf"),
    ("protocols.select", "repro.protocols.dicas", "DicasProtocol", ("select_forward_targets",), "leaf"),
    ("protocols.select", "repro.protocols.dicas_keys", "DicasKeysProtocol", ("select_forward_targets",), "leaf"),
    ("protocols.select", "repro.core.locaware", "LocawareProtocol", ("select_forward_targets",), "leaf"),
    ("core.index", "repro.core.response_index", "LocationAwareIndex", ("put", "lookup"), "leaf"),
    ("experiments.grid_run", "repro.experiments.grid", "GridRunner", ("run",), "phase"),
    ("experiments.key_payload", "repro.experiments.grid", "GridSpec", ("cell_key_payload",), "leaf"),
    ("experiments.run_protocol", "repro.experiments.runner", None, ("run_protocol",), "phase"),
    ("analysis.to_document", "repro.analysis.persistence", None, ("run_to_document", "grid_cell_to_document"), "phase"),
    ("analysis.load_document", "repro.analysis.persistence", None, ("load_run_document", "load_grid_cell_document"), "phase"),
    ("analysis.report", "repro.analysis.sweep_report", None, ("render_sweep_report",), "phase"),
    ("results.put", "repro.results.store", "ResultStore", ("put",), "phase"),
    ("results.get", "repro.results.store", "ResultStore", ("get",), "phase"),
    ("results.has", "repro.results.store", "ResultStore", ("has",), "leaf"),
    ("results.sidecar_put", "repro.results.store", "ResultStore", ("put_sidecar",), "phase"),
    ("results.claim", "repro.results.claims", "ClaimStore", ("try_claim",), "leaf"),
    ("results.release", "repro.results.claims", "ClaimStore", ("release",), "leaf"),
    ("results.key", "repro.results.keys", None, ("cell_key",), "leaf"),
)

#: Entry points that receive a callable from a layer above; their
#: wrappers (the named ``LayerTracer`` methods) substitute a dispatcher.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "schedule_at", "_wrap_schedule_at"),
    ("repro.sim.engine", "PeriodicProcess", "__init__", "_wrap_periodic_init"),
    ("repro.overlay.network", "P2PNetwork", "send", "_wrap_send"),
    ("repro.bloom.delta", "DeltaCodec", "encode", "_wrap_encode"),
)

#: Span name of the event callbacks a layer defines.
_HANDLER_SPAN = {"workload": "workload.arrival"}


def handler_span(layer: str) -> str:
    """The span that times event callbacks defined in package ``layer``."""
    return _HANDLER_SPAN.get(layer, f"{layer}.handlers")


class LayerTracer:
    """Span stack + aggregates; install/uninstall the wrappers around a pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: span name → [calls, self seconds]
        self.totals: dict[str, list[float]] = {}
        #: individually kept phase spans: (id, parent id, name, start, end)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        #: seconds covered by top-level spans (stack depth 0)
        self.top_level_s = 0.0
        #: ``DeltaCodec.encode`` calls that found something to push
        self.useful_encodes = 0
        self._stack: list[float] = []
        self._phase_stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._handler_records: dict[str, list[float]] = {}

    # -- wrappers ------------------------------------------------------------

    def _record(self, name: str) -> list[float]:
        return self.totals.setdefault(name, [0, 0.0])

    def _leaf(self, name: str, fn: Callable, count: bool = True) -> Callable:
        clock, stack, rec = self._clock, self._stack, self._record(name)
        calls = 1 if count else 0

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[0] += calls
                rec[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed

        traced.__wrapped__ = fn
        return traced

    def _phase(self, name: str, fn: Callable) -> Callable:
        clock, phases, spans = self._clock, self._phase_stack, self.spans
        timed = self._leaf(name, fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = len(spans)
            parent = phases[-1] if phases else None
            spans.append((span_id, parent, name, clock(), 0.0))
            phases.append(span_id)
            try:
                return timed(*args, **kwargs)
            finally:
                phases.pop()
                spans[span_id] = (span_id, parent, name, spans[span_id][3], clock())

        traced.__wrapped__ = fn
        return traced

    def _handler_record(self, callback: Callable) -> list[float]:
        module = getattr(callback, "__module__", None) or type(callback).__module__
        rec = self._handler_records.get(module)
        if rec is None:
            parts = module.split(".")
            layer = parts[1] if parts[0] == "repro" and len(parts) > 1 else "bench"
            rec = self._handler_records[module] = self._record(handler_span(layer))
        return rec

    def _dispatch(self, rec: list[float], callback: Callable, *args: Any) -> Any:
        # One event callback = one span of the layer that defined it.
        clock, stack = self._clock, self._stack
        start = clock()
        stack.append(0.0)
        try:
            return callback(*args)
        finally:
            elapsed = clock() - start
            rec[0] += 1
            rec[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            else:
                self.top_level_s += elapsed

    def _dispatch_message(self, dst: int, packed: tuple) -> Any:
        rec, handler, payload = packed
        return self._dispatch(rec, handler, dst, payload)

    def _wrap_schedule_at(self, fn: Callable) -> Callable:
        dispatch, record = self._dispatch, self._handler_record

        def schedule_at(sim: Any, when: float, callback: Callable, *args: Any) -> Any:
            return fn(sim, when, dispatch, record(callback), callback, *args)

        return self._leaf("sim.schedule", schedule_at)

    def _wrap_send(self, fn: Callable) -> Callable:
        dispatch, record = self._dispatch_message, self._handler_record

        def send(
            net: Any, src: int, dst: int, handler: Callable, payload: object,
            *args: Any, **kwargs: Any,
        ) -> Any:
            packed = (record(handler), handler, payload)
            return fn(net, src, dst, dispatch, packed, *args, **kwargs)

        return self._leaf("overlay.send", send)

    def _wrap_periodic_init(self, fn: Callable) -> Callable:
        dispatch, record = self._dispatch, self._handler_record

        def __init__(
            process: Any, sim: Any, period: float, callback: Callable,
            *args: Any, **kwargs: Any,
        ) -> None:
            traced = partial(dispatch, record(callback), callback)
            fn(process, sim, period, traced, *args, **kwargs)

        return __init__

    def _wrap_encode(self, fn: Callable) -> Callable:
        def encode(codec: Any, old: Any, new: Any) -> Any:
            delta = fn(codec, old, new)
            if delta.encoded_bits != 0 or delta.is_full:
                self.useful_encodes += 1
            return delta

        return self._leaf("bloom.encode", encode)

    # -- install / uninstall ---------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            # ``from x import f`` copied the function into other
            # namespaces; re-point every repro module that holds it.
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro"):
                    continue
                if vars(module).get(attr) is raw:
                    self._undo.append((module, attr, raw))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every target (idempotence is the caller's job: call once)."""
        for name, module_name, cls_name, attrs, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            for attr in attrs:
                if kind == "phase":
                    make = partial(self._phase, name)
                else:
                    make = partial(self._leaf, name, count=kind == "leaf")
                self._replace(owner, attr, make)
        for module_name, cls_name, attr, wrapper in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            self._replace(owner, attr, getattr(self, wrapper))

    def uninstall(self) -> None:
        """Put every original object back, newest replacement first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> LayerTracer:
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        """How many spans closed under ``name``."""
        return int(self.totals.get(name, (0, 0.0))[0])

    def self_s(self, name: str) -> float:
        """Self seconds accumulated under ``name``."""
        return float(self.totals.get(name, (0, 0.0))[1])

    def total_self_s(self) -> float:
        """Self seconds of every span; equals ``top_level_s`` when the
        child-time bookkeeping is sound."""
        return sum(rec[1] for rec in self.totals.values())

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix), largest first."""
        layers: dict[str, float] = {}
        for name, (_calls, seconds) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return dict(sorted(layers.items(), key=lambda item: -item[1]))

    def write_spans(self, path: Path) -> None:
        """Write the individually kept phase spans as JSONL."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_s": start, "end_s": end}
                    )
                    + "\n"
                )
