"""Query trace recording and replay.

Two uses:

- *Fairness audits*: assert that two protocol runs with the same seed
  really saw the identical query stream (tests do this).
- *Trace-driven experiments*: replay a recorded trace against another
  protocol or configuration, decoupling workload generation from
  simulation (the substitute for the Gnutella traces of the paper's
  refs [11, 15], which are not redistributable).

A :class:`TraceRecorder` records a trace by wrapping the ``issue``
callback a workload is given.  Traces serialise to a simple
line-oriented text format: ``index time origin file_id kw1,kw2,...``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TextIO

from ..overlay.network import P2PNetwork

__all__ = [
    "QueryEvent",
    "TraceRecorder",
    "serialize_trace",
    "parse_trace",
    "TraceReplayer",
]


@dataclass(frozen=True)
class QueryEvent:
    """One issued query: who asks, for what, with which keywords."""

    index: int
    time: float
    origin: int
    file_id: int
    keywords: tuple[str, ...]


class TraceRecorder:
    """An ``issue`` callback that records every query it forwards.

    Hand it to a workload in place of the callback it wraps; ``events``
    then holds the issued queries in order (``index`` counts from 1),
    ready for :func:`serialize_trace`::

        recorder = TraceRecorder(network, protocol.issue_query)
        QueryWorkload(network, recorder, max_queries=300).start()
    """

    def __init__(
        self,
        network: P2PNetwork,
        issue: Callable[[int, int, tuple[str, ...]], None],
    ) -> None:
        self._network = network
        self._issue = issue
        self.events: list[QueryEvent] = []

    def __call__(self, origin: int, file_id: int, keywords: tuple[str, ...]) -> None:
        self.events.append(
            QueryEvent(
                len(self.events) + 1, self._network.sim.now, origin, file_id, keywords
            )
        )
        self._issue(origin, file_id, keywords)


def serialize_trace(events: Iterable[QueryEvent], out: TextIO) -> int:
    """Write events in the line format; returns the number written."""
    count = 0
    for event in events:
        keywords = ",".join(event.keywords)
        out.write(
            f"{event.index} {event.time:.6f} {event.origin} {event.file_id} {keywords}\n"
        )
        count += 1
    return count


def parse_trace(source: TextIO) -> list[QueryEvent]:
    """Parse a trace written by :func:`serialize_trace`."""
    events: list[QueryEvent] = []
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 5:
            raise ValueError(
                f"trace line {line_number}: expected 5 fields, got {len(parts)}"
            )
        index, time, origin, file_id, keywords = parts
        events.append(
            QueryEvent(
                index=int(index),
                time=float(time),
                origin=int(origin),
                file_id=int(file_id),
                keywords=tuple(keywords.split(",")),
            )
        )
    return events


class TraceReplayer:
    """Re-issues a recorded trace into a fresh simulation.

    Every event is scheduled at its recorded virtual time, regardless of
    the current network's query-rate configuration — the trace *is* the
    workload.

    ``generated`` (trace events consumed so far) and ``on_arrival`` are
    what :func:`~repro.experiments.runner.drive_until_settled` asks of a
    workload, so a replay is driven like a generated one.  An event
    whose recorded origin is down in this run is consumed but not issued
    (``replayed`` stays behind ``generated``); the driver's accounting
    check reports such a replay as short of its trace.
    """

    #: Called, when set, after every trace event (issued or skipped).
    on_arrival: Callable[[], None] | None = None

    def __init__(
        self,
        network: P2PNetwork,
        issue: Callable[[int, int, tuple[str, ...]], None],
        events: Sequence[QueryEvent],
    ) -> None:
        self._network = network
        self._issue = issue
        self._events = sorted(events, key=lambda e: (e.time, e.index))
        self.replayed = 0
        self.generated = 0

    def start(self) -> None:
        """Schedule every trace event at its recorded time."""
        for event in self._events:
            self._network.sim.schedule_at(event.time, self._fire, event)

    def _fire(self, event: QueryEvent) -> None:
        self.generated += 1
        # A recorded origin that is down in this run is skipped rather
        # than teleporting the query to a different peer.
        if self._network.peer(event.origin).alive:
            self.replayed += 1
            self._issue(event.origin, event.file_id, event.keywords)
        if self.on_arrival is not None:
            self.on_arrival()
