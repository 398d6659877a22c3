"""The discrete-event simulation engine.

This is the reproduction's substitute for PeerSim's event-driven mode:
a classic future-event-list simulator built on a binary heap.  An event
is one plain ``(time, sequence, callback, args)`` tuple: the tuple is
the heap entry, and it is what :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` hand back.  The third way onto the heap,
:meth:`Simulator.schedule_fanout`, pushes one such tuple per target of
a fan-out and hands back nothing: what it schedules is never
cancelled.  The sequence number breaks ties so that events scheduled
earlier at the same timestamp run first, which makes runs fully
deterministic for a fixed seed.

Typical usage::

    sim = Simulator()
    sim.schedule(0.5, lambda: print("hello at t=0.5"))
    sim.run(until=10.0)

Cancellation costs the events that are never cancelled nothing.
:meth:`Simulator.cancel` takes the event back and notes its sequence
number; the entry stays in the heap (still pending, still counted
toward the queue peak) and is dropped, note and all, when it reaches
the front.  Cancelling an event that has left the heap — it fired, was
cancelled before and dropped, or went with :meth:`Simulator.clear` — is
a no-op and leaves nothing behind.
Ending a run from inside an event (:meth:`Simulator.stop`) rides on the
same note set, so the events that never ask for it pay nothing either.

:class:`PeriodicProcess` is a calendar of recurring ticks -- every
peer's Bloom-filter update push shares one -- that keeps a single heap
entry however many members it drives.  Each tick carries the sequence
number one event per member would have had, reserved when that member
is armed, so the calendar fires exactly the events, in exactly the
order, that one recurring event per member would; only the queue is
shorter.  Its members' phases must lie within one period of each other.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from heapq import heappop, heappush
from math import inf, isfinite
from typing import Any

from .errors import EventLoopError, SchedulingError

__all__ = ["Event", "Simulator", "PeriodicProcess"]

#: A scheduled event, exactly as it sits in the heap.  Opaque to
#: callers: keep it only to pass it to :meth:`Simulator.cancel`.
Event = tuple[float, int, Callable[..., None], tuple]

#: What :meth:`Simulator.stop` leaves in the cancelled-sequence set.  No
#: event carries it (sequence numbers start at 0), and a non-empty set
#: is the one condition :meth:`Simulator.run` already tests per event.
_STOP = -1


def _bad_delay(delay: float) -> SchedulingError:
    """The error for a delay that fails ``0 <= delay < inf``."""
    if isfinite(delay):
        return SchedulingError(f"cannot schedule into the past (delay={delay!r})")
    return SchedulingError(f"delay must be finite, got {delay!r}")


def _bad_time(time: float, now: float) -> SchedulingError:
    """The error for an event time that fails ``now <= time < inf``."""
    if isfinite(time):
        return SchedulingError(
            f"cannot schedule into the past (time={time!r} < now={now!r})"
        )
    return SchedulingError(f"event time must be finite, got {time!r}")


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns a virtual clock (:attr:`now`, in seconds) and a
    future event list.  Callbacks run synchronously inside
    :meth:`run`; they may schedule further events.

    Notes
    -----
    The engine is single-threaded by design.  Determinism comes from
    (a) the tie-breaking sequence number and (b) callers drawing all
    randomness from seeded :class:`~repro.sim.rng.RandomStreams`.
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        # Sequence numbers of cancelled events still in the queue, and
        # the latest timestamp among those already dropped from it.
        self._cancelled: set[int] = set()
        self._dropped_until = -inf
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._queue_peak = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still in the queue (including lazily cancelled ones)."""
        return len(self._queue)

    @property
    def queue_peak(self) -> int:
        """High-water mark of the future event list (cancelled events included)."""
        return self._queue_peak

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the event, which :meth:`cancel` accepts.  Raises
        :class:`~repro.sim.errors.SchedulingError` for negative or
        non-finite delays.
        """
        # False for NaN, +-inf and negative delays alike; which of them
        # it was matters only to the message.
        if not 0 <= delay < inf:
            raise _bad_delay(delay)
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if not self._now <= time < inf:
            raise _bad_time(time, self._now)
        event = (time, self._seq, callback, args)
        self._seq += 1
        self._push(event)
        return event

    def _push(self, event: Event) -> None:
        """Put ``event`` on the heap, its sequence number already taken."""
        queue = self._queue
        heappush(queue, event)
        if len(queue) > self._queue_peak:
            self._queue_peak = len(queue)

    def schedule_fanout(
        self,
        delay: Callable[[Any, Any], float],
        src: Any,
        targets: Iterable[Any],
        callback: Callable[..., None],
        *rest: Any,
    ) -> None:
        """Schedule ``callback(target, *rest)`` at ``now + delay(src, target)``
        for each of ``targets``, in order.

        Exactly the events the same :meth:`schedule_at` calls would
        queue — same times, consecutive sequence numbers, same queue
        peak, same :class:`~repro.sim.errors.SchedulingError` for a
        time in the past or not finite (the targets before it stay
        queued) — in one call.  Returns nothing: these events cannot be
        cancelled.
        """
        queue = self._queue
        now = self._now
        seq = self._seq
        try:
            for target in targets:
                time = now + delay(src, target)
                if not now <= time < inf:
                    raise _bad_time(time, now)
                heappush(queue, (time, seq, callback, (target,) + rest))
                seq += 1
        finally:
            # Nothing pops inside the loop, so one peak update is exact.
            self._seq = seq
            if len(queue) > self._queue_peak:
                self._queue_peak = len(queue)

    def cancel(self, event: Event) -> None:
        """Prevent ``event`` from firing.

        Idempotent, and a no-op for an event that already fired.
        """
        queue = self._queue
        # Whatever left the queue was its minimum then, so it sorts
        # before everything in it now -- unless it was dropped ahead of
        # the clock and something earlier was scheduled since, the one
        # case that takes a search.
        if not queue or event[:2] < queue[0][:2]:
            return
        if event[0] <= self._dropped_until and not any(e is event for e in queue):
            return
        self._cancelled.add(event[1])

    def _drop_front(self) -> None:
        """Pop the cancelled event at the front of the queue and forget it."""
        time, seq, _callback, _args = heappop(self._queue)
        self._cancelled.remove(seq)
        self._dropped_until = max(self._dropped_until, time)

    # -- running ---------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time; the
            clock is then advanced to ``until``.  ``None`` means run to
            queue exhaustion; a non-finite ``until`` is refused (the
            clock must stay finite for the events scheduled after).
        max_events:
            Safety valve: stop after this many events even if more are
            pending.  ``0`` runs nothing.

        Returns
        -------
        int
            The number of (non-cancelled) events executed by this call.

        A callback may end the run early with :meth:`stop`.
        """
        if self._running:
            raise EventLoopError("Simulator.run() is not re-entrant")
        if until is not None and not self._now <= until < inf:
            if isfinite(until):
                raise EventLoopError(f"until={until!r} is before now={self._now!r}")
            raise EventLoopError(
                f"until must be finite, got {until!r}; "
                "until=None runs until the queue is exhausted"
            )
        if max_events is not None and max_events < 0:
            raise EventLoopError(f"max_events must be non-negative, got {max_events!r}")
        queue = self._queue
        cancelled = self._cancelled
        horizon = inf if until is None else until
        budget = -1 if max_events is None else max_events
        executed = 0
        self._running = True
        try:
            while queue and executed != budget and queue[0][0] <= horizon:
                if cancelled:
                    if _STOP in cancelled:
                        break
                    if queue[0][1] in cancelled:
                        self._drop_front()
                        continue
                time, _seq, callback, args = heappop(queue)
                self._now = time
                callback(*args)
                executed += 1
                self._events_processed += 1
        finally:
            self._running = False
            stopped = _STOP in cancelled
            cancelled.discard(_STOP)
        if not stopped and until is not None and (not queue or queue[0][0] > until):
            self._now = max(self._now, until)
        return executed

    def stop(self) -> None:
        """End the current :meth:`run` once the calling callback returns.

        Only valid inside a callback (:class:`~repro.sim.errors.EventLoopError`
        otherwise).  The calling event is the last one executed and is
        counted; the clock stays at its timestamp even under
        ``run(until=...)``; everything still queued — events at the same
        timestamp and whatever the callback schedules afterwards
        included — stays queued, and a later :meth:`run` resumes there.
        """
        if not self._running:
            raise EventLoopError("Simulator.stop() called outside run()")
        self._cancelled.add(_STOP)

    def clear(self) -> None:
        """Drop every pending event, cancelled ones included.

        The clock, the sequence numbers, :attr:`events_processed` and
        :attr:`queue_peak` stay as they are: events scheduled afterwards
        run as they would have, and cancelling a dropped event is a
        no-op.  A finished run calls this so that the callbacks still
        queued, which reach back to whatever owns the simulator, do not
        keep it in a reference cycle.  Not valid inside :meth:`run`
        (:class:`~repro.sim.errors.EventLoopError`).
        """
        if self._running:
            raise EventLoopError("Simulator.clear() called inside run()")
        queue = self._queue
        if queue:
            latest = max(event[0] for event in queue)
            self._dropped_until = max(self._dropped_until, latest)
            queue.clear()
        self._cancelled.clear()

    def step(self) -> bool:
        """Execute exactly one pending event.

        Returns ``True`` if an event ran, ``False`` if the queue held
        only cancelled events or was empty.
        """
        return self.run(max_events=1) == 1

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if none pending."""
        queue = self._queue
        while queue and queue[0][1] in self._cancelled:
            self._drop_front()
        return queue[0][0] if queue else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={len(self._queue)}, "
            f"processed={self._events_processed})"
        )


class PeriodicProcess:
    """A calendar of recurring ticks: members that share one period.

    Each member ticks every ``period`` seconds from its own phase, and
    each tick calls ``callback(member)``.  Used for the Bloom-filter
    update push in Locaware (§4.2 of the paper: peers periodically
    propagate filter deltas to neighbors), where one calendar holds
    every peer.  ``phases`` gives the members as ``(member,
    initial_delay)`` pairs, ``initial_delay`` being the delay to the
    member's first tick; without it the calendar has one member,
    ``None``, whose first tick fires one full period from now.

    However many members it has, the calendar keeps one event on the
    heap: the tick of the member due next.  When that event fires the
    calendar calls the member's callback, re-arms the member one period
    later and pushes the event of the new head.  Each tick still carries
    the sequence number it would have had as an event of its own,
    reserved when the member is armed -- at construction, in ``phases``
    order, and on each re-arm after the callback returns -- so it ties
    with other events at the same timestamp exactly as one
    ``schedule`` per member would.  Phases must lie within one period
    of each other (:class:`~repro.sim.errors.SchedulingError`
    otherwise): then a re-armed member always sorts after every member
    still waiting, and a deque in firing order is the whole calendar.

    :meth:`stop` ends every member's ticks.  A callback that raises ends
    the calendar too: nothing is re-armed after it.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[Any], None],
        phases: Iterable[tuple[Any, float]] | None = None,
    ) -> None:
        if period <= 0 or not isfinite(period):
            raise SchedulingError(f"period must be positive and finite, got {period!r}")
        if phases is None:
            phases = ((None, period),)
        now, seq = sim.now, sim._seq
        calendar = []
        for member, delay in phases:
            if not 0 <= delay < inf:
                raise _bad_delay(delay)
            calendar.append((now + delay, seq + len(calendar), member))
        calendar.sort()
        if calendar and calendar[-1][0] > calendar[0][0] + period:
            raise SchedulingError(
                f"phases spread over {calendar[-1][0] - calendar[0][0]!r} s, "
                f"more than one period ({period!r} s)"
            )
        sim._seq = seq + len(calendar)
        self._sim = sim
        self._period = period
        self._callback = callback
        self._stopped = False
        self._ticks = 0
        self._calendar = deque(calendar)
        self._event: Event | None = None
        if calendar:
            self._push_head()

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired, over all members."""
        return self._ticks

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def _push_head(self) -> None:
        time, seq, _member = self._calendar[0]
        self._event = event = (time, seq, self._tick, ())
        self._sim._push(event)

    def _tick(self) -> None:
        calendar = self._calendar
        time, _seq, member = calendar.popleft()
        self._ticks += 1
        self._callback(member)
        if self._stopped:
            return
        # The clock still reads ``time``: this is ``schedule(period)``
        # for the member, its sequence number taken now and kept.
        sim = self._sim
        calendar.append((time + self._period, sim._seq, member))
        sim._seq += 1
        self._push_head()

    def stop(self) -> None:
        """Stop every member; the pending tick (if any) is cancelled.

        The calendar lets go of that event too -- its callback is the
        calendar's own ``_tick`` -- so a stopped calendar is no
        reference cycle.  Stopping again is a no-op.
        """
        if self._stopped:
            return
        self._stopped = True
        self._calendar.clear()
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None
