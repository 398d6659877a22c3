"""Structured trace hooks for debugging simulation runs.

Tracing is off by default (a :class:`NullTracer` swallows everything at
near-zero cost).  Attach a :class:`RecordingTracer` to capture events
for assertions in tests, or a :class:`JsonlTracer` to stream events to
a JSON-lines file for offline analysis (``repro trace summarize``).

Trace events are ``(time, kind, payload)`` triples; ``kind`` is a short
string such as ``"query.issue"`` or ``"cache.insert"`` and ``payload``
is a small dict.  Protocols emit traces through the shared tracer held
by the simulation context, so enabling tracing never changes behaviour.

The ``enabled`` contract: hot paths may skip payload construction
entirely with ``if tracer.enabled:``, and :meth:`Tracer.emit` itself
must behave as a no-op whenever ``enabled`` is false — flipping the
flag mid-run silences a tracer without detaching it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: float
    kind: str
    payload: dict[str, Any]


class Tracer:
    """Interface: receives trace events.  Subclass and override :meth:`emit`."""

    enabled: bool = True

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        """Handle one event.  The base class ignores it."""


class NullTracer(Tracer):
    """Discards every event; the default tracer."""

    enabled = False

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        pass


class RecordingTracer(Tracer):
    """Keeps every event in memory, with simple query helpers for tests."""

    def __init__(self, kinds: list[str] | None = None) -> None:
        self._filter = set(kinds) if kinds is not None else None
        self.enabled = True
        self.events: list[TraceEvent] = []

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        if not self.enabled:
            return
        if self._filter is not None and kind not in self._filter:
            return
        self.events.append(TraceEvent(time, kind, payload))

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Every recorded event with the given kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        return sum(1 for e in self.events if e.kind == kind)

    def clear(self) -> None:
        """Forget all recorded events."""
        self.events.clear()


def _json_fallback(value: Any) -> str:
    """Serialise payload values json can't handle (peers, paths, sets...)."""
    return repr(value)


class JsonlTracer(Tracer):
    """Streams events to a JSON-lines file, one object per event.

    Each line is ``{"t": <sim time>, "kind": <kind>, ...payload}``;
    payload keys that would collide with ``t``/``kind`` are dropped in
    favour of the canonical fields.  Non-JSON-able payload values fall
    back to their ``repr``.

    ``kinds`` optionally restricts which event kinds are written, and
    ``limit`` caps the number of written events (further events are
    counted in :attr:`events_dropped` but not written), bounding trace
    size on long runs.  Close the tracer (or use it as a context
    manager) to flush the file.
    """

    def __init__(
        self,
        path: str | Path,
        kinds: list[str] | None = None,
        limit: int | None = None,
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.path = Path(path)
        self._filter = set(kinds) if kinds is not None else None
        self._limit = limit
        self._handle: Any | None = self.path.open("w", encoding="utf-8")
        self.enabled = True
        self.events_written = 0
        self.events_dropped = 0

    def emit(self, time: float, kind: str, **payload: Any) -> None:
        if not self.enabled:
            return
        if self._filter is not None and kind not in self._filter:
            return
        if self._handle is None:
            raise ValueError(f"JsonlTracer({str(self.path)!r}) is closed")
        if self._limit is not None and self.events_written >= self._limit:
            self.events_dropped += 1
            return
        record: dict[str, Any] = {"t": time, "kind": kind}
        for key, value in payload.items():
            if key not in record:
                record[key] = value
        self._handle.write(json.dumps(record, default=_json_fallback) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the file.  Idempotent."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> JsonlTracer:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
