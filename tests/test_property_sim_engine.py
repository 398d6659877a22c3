"""Property-based test: the event engine against a sorted-list model.

Random programs of ``schedule`` / ``schedule_at`` /
``schedule_fanout`` / ``cancel`` / ``run(until, max_events)`` / ``step``
/ ``peek_time`` / ``stop`` — with equal timestamps, and callbacks that
themselves schedule, fan out, cancel and stop the run — are fed to
:class:`~repro.sim.Simulator` and to :class:`ModelSimulator`, and
everything a caller can observe (firing order, clock, sequence number,
queue peak, events processed) must agree after every operation.  The
model keeps the pre-tuple engine's semantics in the most obvious form
(a sorted list of rows with a "live" flag each, and a fan-out as one
``schedule_at`` per target), so this is the regression proof that the
heap-of-tuples engine fires the same events in the same order;
``tests/golden/run_documents.json`` is the same proof at
full-simulation scale.
"""

import math
from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventLoopError, SchedulingError, Simulator


class ModelSimulator:
    """The engine's contract, slow and obviously right."""

    def __init__(self):
        self.rows = []  # sorted [time, seq, live, callback, args]
        self.now, self.seq, self.events_processed, self.queue_peak = 0.0, 0, 0, 0
        self.running = self.stopping = False

    pending_events = property(lambda self: len(self.rows))

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if not self.now <= time < math.inf:
            raise SchedulingError(f"bad event time {time!r}")
        row = [time, self.seq, True, callback, args]
        self.seq += 1
        insort(self.rows, row)
        self.queue_peak = max(self.queue_peak, len(self.rows))
        return row

    def schedule_fanout(self, delay, src, targets, callback, *rest):
        for target in targets:
            self.schedule_at(self.now + delay(src, target), callback, target, *rest)

    def cancel(self, row):
        row[2] = False

    def run(self, until=None, max_events=None):
        executed = 0
        self.running, self.stopping = True, False
        while (
            self.rows
            and not self.stopping
            and executed != max_events
            and (until is None or self.rows[0][0] <= until)
        ):
            time, _seq, live, callback, args = self.rows.pop(0)
            if live:
                self.now = time
                callback(*args)
                executed += 1
                self.events_processed += 1
        self.running = False
        if self.stopping:
            return executed  # the clock stays on the stopping event
        if until is not None and (not self.rows or self.rows[0][0] > until):
            self.now = max(self.now, until)
        return executed

    def stop(self):
        if not self.running:
            raise EventLoopError("stop() outside run()")
        self.stopping = True

    def step(self):
        return self.run(max_events=1) == 1

    def peek_time(self):
        while self.rows and not self.rows[0][2]:
            self.rows.pop(0)
        return self.rows[0][0] if self.rows else None


class Driver:
    """Interprets one program against one simulator (real or model)."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []  # everything ever scheduled one by one, in order
        self.fanouts = 0
        self.fired = []

    def apply(self, op):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            _, delay, then = op
            when = delay if kind == "schedule" else self.sim.now + delay
            label = len(self.events)
            self.events.append(getattr(self.sim, kind)(when, self.fire, label, then))
            return None
        if kind == "fanout":
            _, fan_delays, then = op
            self.fanouts += 1
            try:
                self.sim.schedule_fanout(
                    lambda _src, target: fan_delays[target], None,
                    range(len(fan_delays)), self.fire_target, self.fanouts, then,
                )
            except SchedulingError:
                return "refused"  # a NaN or negative delay
            return None
        if kind == "cancel":
            if self.events:
                self.sim.cancel(self.events[op[1] % len(self.events)])
            return None
        if kind == "run":
            _, horizon, budget = op
            until = None if horizon is None else self.sim.now + horizon
            return self.sim.run(until=until, max_events=budget)
        if kind == "step":
            return self.sim.step()
        if kind == "stop":
            try:
                self.sim.stop()
            except EventLoopError:
                return "refused"  # only ever outside a run
            return None
        return self.sim.peek_time()

    def fire(self, label, then):
        self.fired.append((label, self.sim.now, self.sim.events_processed))
        for op in then:
            self.apply(op)

    def fire_target(self, target, fanout, then):
        self.fire((fanout, target), then)

    def observed(self):
        sim = self.sim
        seq = sim.seq if isinstance(sim, ModelSimulator) else sim._seq
        return (
            list(self.fired), sim.now, sim.events_processed,
            sim.pending_events, sim.queue_peak, seq,
        )


# A handful of delays, so equal timestamps are the common case.
delays = st.sampled_from([0.0, 0.5, 1.0, 2.0])
# A fan-out's per-target delays; now and then one it must refuse.
fan_delays = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.0] * 3 + [-1.0, math.nan]), max_size=4
)
cancels = st.tuples(st.just("cancel"), st.integers(0, 40))
stops = st.tuples(st.just("stop"))
# What a callback does when it fires: schedule or fan out leaves, cancel
# anything, end the run (and then, possibly, carry on scheduling and
# cancelling).
callback_ops = st.lists(
    st.tuples(st.just("schedule"), delays, st.just(()))
    | st.tuples(st.just("fanout"), fan_delays, st.just(()))
    | cancels
    | stops,
    max_size=3,
)
programs = st.lists(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), delays, callback_ops)
    | st.tuples(st.just("fanout"), fan_delays, callback_ops)
    | cancels
    | st.tuples(st.just("run"), st.none() | delays, st.none() | st.integers(0, 4))
    | st.tuples(st.just("step"))
    | stops
    | st.tuples(st.just("peek")),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(program=programs)
def test_engine_matches_sorted_list_model(program):
    real, model = Driver(Simulator()), Driver(ModelSimulator())
    for op in program:
        assert real.apply(op) == model.apply(op), op
        assert real.observed() == model.observed(), op
        # No residue, ever: the engine's cancellation notes are exactly
        # the cancelled rows still waiting in the model.
        assert real.sim._cancelled == {
            seq for _time, seq, live, _callback, _args in model.sim.rows if not live
        }, op
    while real.sim.pending_events:  # a callback may stop the drain too
        assert real.sim.run() == model.sim.run()
    assert real.observed() == model.observed()
    assert real.sim.pending_events == 0
    assert real.sim._cancelled == set()
