"""Property-based test: the periodic calendar against one process per member.

:class:`~repro.sim.PeriodicProcess` drives many members from a single
heap entry.  Each member's tick keeps the sequence number one
``schedule`` per member would have given it, so the calendar must be
indistinguishable from ``tests/reference_periodic.py`` — one process
and one heap entry per member — to everything but the queue's length.

Random periods and phases (on a grid, so ticks tie with each other and
with other events exactly, and off it), other events at the same
timestamps, callbacks that stop the calendar, stop the run, cancel and
schedule, ``peek_time`` dropping a cancelled tick or event ahead of the
clock, and a cancel of it after something earlier was queued (the
engine's ``_dropped_until`` search) are fed to both.  After every
operation the ``(time, member)`` fire order, the engine's sequence
number, its events processed and its clock must agree.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_periodic import ReferenceCalendar

from repro.sim import PeriodicProcess, SchedulingError, Simulator


def new_calendar(sim, period, callback, phases):
    return PeriodicProcess(sim, period, callback, phases=phases)


#: What an event or a tick may do when it fires.
ACTIONS = st.one_of(
    st.just(("none",)),
    st.just(("stop",)),
    st.just(("halt",)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
)


@st.composite
def programs(draw):
    period = draw(st.sampled_from([0.5, 1.0, 2.5]) | st.floats(0.1, 5.0))
    grid = period / 4
    delay = st.integers(0, 4).map(lambda k: k * grid) | st.floats(0.0, period)
    phases = [(member, draw(delay)) for member in range(draw(st.integers(0, 8)))]
    event = st.tuples(st.integers(0, 24).map(lambda k: k * 0.25), ACTIONS)
    op = st.one_of(
        st.tuples(st.just("at"), event),
        st.tuples(st.just("run"), st.integers(0, 12).map(lambda k: k * 0.25)),
        st.just(("peek",)),
        st.just(("stop",)),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("cancel-drop-recancel"), st.integers(0, 50)),
    )
    return {
        "period": period,
        "phases": phases,
        "before": draw(st.lists(event, max_size=4)),
        "start_at": draw(st.integers(0, 4).map(lambda k: k * 0.25)),
        "tick_actions": draw(st.dictionaries(st.integers(1, 40), ACTIONS, max_size=4)),
        "ops": draw(st.lists(op, max_size=25)),
    }


def execute(program, make_calendar):
    """Run ``program``; returns what a caller can observe after each step."""
    sim = Simulator()
    log, events, box, ticks = [], [], {}, [0]

    def act(action):
        kind = action[0]
        if kind == "stop" and "calendar" in box:
            box["calendar"].stop()
        elif kind == "halt":
            sim.stop()
        elif kind == "cancel" and events:
            sim.cancel(events[action[1] % len(events)])
        elif kind == "schedule":
            events.append(sim.schedule(action[1], other, len(events), ("none",)))

    def other(event_id, action):
        log.append(("event", sim.now, event_id))
        act(action)

    def tick(member):
        log.append(("tick", sim.now, member))
        ticks[0] += 1
        act(program["tick_actions"].get(ticks[0], ("none",)))

    def at(time, action):
        events.append(sim.schedule_at(max(time, sim.now), other, len(events), action))

    def observed():
        return list(log), sim._seq, sim.events_processed, sim.now

    for time, action in program["before"]:
        at(time, action)
    sim.run(until=program["start_at"])
    box["calendar"] = make_calendar(sim, program["period"], tick, program["phases"])
    steps = [observed()]
    for op in program["ops"]:
        kind = op[0]
        if kind == "at":
            at(*op[1])
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        elif kind == "peek":
            sim.peek_time()
        elif kind == "stop":
            box["calendar"].stop()
        elif kind == "cancel" and events:
            sim.cancel(events[op[1] % len(events)])
        elif kind == "cancel-drop-recancel" and events:
            # Dropped ahead of the clock, then something earlier queued:
            # cancelling it again has to search the queue.
            event = events[op[1] % len(events)]
            sim.cancel(event)
            sim.peek_time()
            at(sim.now, ("none",))
            sim.cancel(event)
        steps.append(observed())
    sim.run(until=sim.now + 4 * program["period"])
    steps.append(observed())
    steps.append(box["calendar"].ticks)
    return steps


@settings(max_examples=300, deadline=None)
@given(programs())
def test_calendar_fires_like_one_process_per_member(program):
    assert execute(program, new_calendar) == execute(program, ReferenceCalendar)


class TestCalendarShape:
    def test_one_heap_entry_for_any_number_of_members(self):
        sim = Simulator()
        calendar = PeriodicProcess(
            sim, 1.0, lambda _: None, phases=[(m, m / 100) for m in range(100)]
        )
        assert sim.pending_events == 1 and sim._seq == 100
        sim.run(until=4.995)
        assert calendar.ticks == 500
        assert sim.queue_peak == 1 and sim.pending_events == 1

    def test_stop_leaves_no_live_tick(self):
        sim = Simulator()
        calendar = PeriodicProcess(
            sim, 1.0, lambda _: None, phases=[(m, m / 10) for m in range(10)]
        )
        sim.run(until=2.05)
        calendar.stop()
        assert sim.peek_time() is None and sim.pending_events == 0
        assert sim.run(until=10.0) == 0

    def test_no_members_no_event(self):
        sim = Simulator()
        calendar = PeriodicProcess(sim, 1.0, lambda _: None, phases=[])
        assert sim.pending_events == 0
        calendar.stop()
        assert sim.run(until=3.0) == 0

    def test_phases_spread_over_more_than_one_period_are_refused(self):
        sim = Simulator()
        with pytest.raises(SchedulingError, match="more than one period"):
            PeriodicProcess(sim, 1.0, lambda _: None, phases=[(0, 0.0), (1, 1.5)])
        assert sim.pending_events == 0 and sim._seq == 0

    def test_a_spread_of_exactly_one_period_is_kept_in_order(self):
        sim, fired = Simulator(), []
        PeriodicProcess(
            sim, 1.0, lambda m: fired.append((sim.now, m)), phases=[(0, 1.0), (1, 0.0)]
        )
        sim.run(until=2.0)
        # Member 0's first tick was armed before member 1's re-arm.
        assert fired == [(0.0, 1), (1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_a_bad_phase_is_refused_before_anything_is_queued(self, bad):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            PeriodicProcess(sim, 1.0, lambda _: None, phases=[(0, 0.5), (1, bad)])
        assert sim.pending_events == 0 and sim._seq == 0
