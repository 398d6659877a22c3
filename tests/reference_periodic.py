"""Reference periodic timers: one engine event per member, re-armed by
``schedule`` after each tick.

This is how recurring ticks reached the engine before
:class:`~repro.sim.PeriodicProcess` became a calendar: every member was
a process of its own with its own heap entry, and a caller holding many
members (the Bloom router) kept them in a dict and stopped them one by
one.  It is the oracle of ``tests/test_property_periodic_calendar.py``:
the calendar must fire the same ``(time, member)`` sequence, leave the
same sequence number and count the same events as this, whatever else
is scheduled around it.  Not used by ``src/``.
"""

from math import isfinite

from repro.sim import SchedulingError


class ReferencePeriodicProcess:
    """A recurring event: runs ``callback()`` every ``period`` seconds."""

    def __init__(self, sim, period, callback, initial_delay=None):
        if period <= 0 or not isfinite(period):
            raise SchedulingError(f"period must be positive and finite, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._stopped = False
        self.ticks = 0
        delay = period if initial_delay is None else initial_delay
        self._event = sim.schedule(delay, self._tick)

    def _tick(self):
        if self._stopped:
            return
        self.ticks += 1
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule(self._period, self._tick)

    def stop(self):
        if self._stopped:
            return
        self._stopped = True
        self._sim.cancel(self._event)
        self._event = None


class ReferenceCalendar:
    """Many members, one :class:`ReferencePeriodicProcess` each, armed in
    ``phases`` order and stopped together — the calendar's contract."""

    def __init__(self, sim, period, callback, phases):
        self._processes = [
            ReferencePeriodicProcess(
                sim, period, lambda m=member: callback(m), initial_delay=delay
            )
            for member, delay in phases
        ]

    @property
    def ticks(self):
        return sum(process.ticks for process in self._processes)

    def stop(self):
        for process in self._processes:
            process.stop()
