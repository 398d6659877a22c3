"""Unit tests for the discrete-event engine."""

import gc
import math
import weakref

import pytest

from repro.sim import (
    EventLoopError,
    PeriodicProcess,
    SchedulingError,
    Simulator,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_event_runs_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callback_args_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [2.0]

    def test_zero_delay_allowed(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(float("inf"), lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)


def noop(*args):
    pass


class TestScheduleFanout:
    """``schedule_fanout``: the events of one ``schedule_at`` per target."""

    DELAYS = {"a": 2.0, "b": 0.5, "c": 2.0}

    def delay(self, src, target):
        assert src == "src"
        return self.DELAYS[target]

    def test_queues_what_sequential_schedule_at_calls_queue(self):
        fanned, sequential = Simulator(), Simulator()
        for sim in (fanned, sequential):
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert fanned.schedule_fanout(
            self.delay, "src", "abc", noop, "x", 7
        ) is None
        for target in "abc":
            sequential.schedule_at(
                sequential.now + self.delay("src", target), noop, target, "x", 7
            )
        assert fanned._queue == sequential._queue
        assert fanned._seq == sequential._seq == 4
        assert fanned.queue_peak == sequential.queue_peak == 3

    def test_fires_callback_with_the_target_first_in_time_then_target_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_fanout(
            self.delay, "src", ["a", "b", "c"],
            lambda target, tag: seen.append((target, tag, sim.now)), "t",
        )
        assert sim.run() == 3
        assert seen == [("b", "t", 0.5), ("a", "t", 2.0), ("c", "t", 2.0)]

    def test_an_empty_fan_out_queues_nothing(self):
        sim = Simulator()
        sim.schedule_fanout(self.delay, "src", (), noop)
        assert (sim.pending_events, sim.queue_peak, sim._seq) == (0, 0, 0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_a_bad_delay_raises_and_keeps_the_targets_before_it(self, bad):
        sim = Simulator()
        delays = {"a": 1.0, "b": bad, "c": 1.0}
        with pytest.raises(SchedulingError):
            sim.schedule_fanout(lambda _src, t: delays[t], "src", "abc", noop)
        assert [event[3] for event in sim._queue] == [("a",)]
        assert (sim._seq, sim.queue_peak) == (1, 1)
        later = sim.schedule(0.0, noop)
        assert later[1] == 1


def assert_no_cancellation_residue(sim):
    """A drained queue leaves nothing for later events to pay for."""
    assert sim.pending_events == 0
    assert sim._cancelled == set()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("fired"))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("fired"))
        sim.cancel(event)
        sim.cancel(event)
        # Still one pending entry, still cancelled.
        assert sim.pending_events == 1
        assert sim.run() == 0
        assert seen == []
        assert_no_cancellation_residue(sim)

    def test_cancel_one_of_many(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        event = sim.schedule(2.0, lambda: seen.append("b"))
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.cancel(event)
        sim.run()
        assert seen == ["a", "c"]

    def test_cancelled_events_do_not_count_as_executed(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        assert sim.run() == 0

    def test_cancel_after_the_event_fired_is_a_no_op(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run(until=1.5)
        sim.cancel(event)
        assert sim._cancelled == set()
        sim.run()
        assert seen == ["a", "b"]
        sim.cancel(event)
        assert_no_cancellation_residue(sim)

    def test_cancel_again_after_the_cancelled_event_was_dropped(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.run(until=1.5) == 0
        sim.cancel(event)
        assert sim._cancelled == set()
        assert sim.run() == 1
        assert_no_cancellation_residue(sim)

    def test_cancel_again_after_a_drop_ahead_of_the_clock(self):
        # peek_time drops a cancelled event without moving the clock, so
        # something can still be scheduled before it: the one case where
        # an event that left the queue does not sort before its front.
        sim = Simulator()
        seen = []
        event = sim.schedule(10.0, seen.append, "cancelled")
        sim.cancel(event)
        assert sim.peek_time() is None
        sim.schedule(5.0, seen.append, "earlier")
        later = sim.schedule(10.0, seen.append, "same time, still pending")
        sim.cancel(event)
        assert sim._cancelled == set()
        sim.cancel(later)
        assert sim._cancelled == {later[1]}
        sim.run()
        assert seen == ["earlier"]
        assert_no_cancellation_residue(sim)

    def test_cancel_from_a_callback_at_the_same_timestamp(self):
        sim = Simulator()
        seen = []
        events = {}

        def first():
            seen.append("first")
            sim.cancel(events["first"])  # itself: already fired
            sim.cancel(events["second"])  # same timestamp, still pending

        events["first"] = sim.schedule(1.0, first)
        events["second"] = sim.schedule(1.0, seen.append, "second")
        events["third"] = sim.schedule(1.0, seen.append, "third")
        assert sim.run() == 2
        assert seen == ["first", "third"]
        assert sim.events_processed == 2
        assert_no_cancellation_residue(sim)

    def test_cancelled_events_cost_later_events_nothing(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.cancel(sim.schedule(t, lambda: None))
        sim.schedule(4.0, lambda: None)
        assert sim.run(until=3.5) == 0
        # Every cancelled entry has been dropped, and its note with it,
        # although the queue has not drained.
        assert sim.pending_events == 1
        assert sim._cancelled == set()


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1.0))
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.run(until=2.0)
        assert seen == [1.0]
        assert sim.now == 2.0

    def test_run_until_includes_events_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(2.0))
        sim.run(until=2.0)
        assert seen == [2.0]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1.0))
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.run(until=2.0)
        sim.run()
        assert seen == [1.0, 5.0]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(EventLoopError):
            sim.run(until=1.0)

    def test_run_until_inf_is_rejected_and_leaves_the_clock_finite(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        with pytest.raises(EventLoopError, match="until=None"):
            sim.run(until=math.inf)
        assert seen == []
        assert sim.now == 0.0
        assert sim.run() == 1
        sim.schedule(1.0, seen.append, "b")  # the clock is still finite
        assert sim.run() == 1
        assert seen == ["a", "b"]
        assert sim.now == 2.0

    def test_run_until_nan_is_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(EventLoopError, match="until=None"):
            sim.run(until=math.nan)
        # The refused call did not leave the loop marked as running.
        assert sim.run() == 1

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 5

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 7

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        failure = []

        def reenter():
            try:
                sim.run()
            except EventLoopError:
                failure.append(True)

        sim.schedule(1.0, reenter)
        sim.run()
        assert failure == [True]

    def test_step_executes_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        assert sim.step() is True
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert Simulator().step() is False

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_events_processed_accumulates(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestStop:
    """``Simulator.stop()``: end the run from inside an event."""

    def test_stopping_event_is_the_last_one_and_is_counted(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, lambda: (seen.append("b"), sim.stop()))
        sim.schedule(3.0, seen.append, "c")
        assert sim.run() == 2
        assert seen == ["a", "b"]
        assert sim.events_processed == 2
        assert sim.pending_events == 1

    def test_clock_stays_on_the_stopping_event_under_until(self):
        sim = Simulator()
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, lambda: None)
        sim.run(until=500.0)
        assert sim.now == 2.0

    def test_clock_stays_even_when_nothing_else_is_queued(self):
        # The loop ends by itself here; the request must still be seen.
        sim = Simulator()
        sim.schedule(2.0, sim.stop)
        assert sim.run(until=500.0) == 1
        assert sim.now == 2.0
        assert sim.run(until=500.0) == 0  # and is not left armed
        assert sim.now == 500.0

    def test_later_run_resumes_normally(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, seen.append, "after")
        sim.run()
        assert seen == []
        assert sim.run(until=10.0) == 1
        assert seen == ["after"]
        assert sim.now == 10.0

    def test_same_timestamp_events_scheduled_later_stay_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "first")
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, seen.append, "third")
        assert sim.run(until=1.0) == 2
        assert seen == ["first"]
        assert sim.peek_time() == 1.0
        assert sim.run() == 1
        assert seen == ["first", "third"]

    def test_events_scheduled_after_the_request_stay_queued(self):
        sim = Simulator()
        seen = []

        def stop_then_schedule():
            sim.stop()
            sim.schedule(0.0, seen.append, "child")

        sim.schedule(1.0, stop_then_schedule)
        assert sim.run() == 1
        assert seen == []
        assert sim.run() == 1
        assert seen == ["child"]

    def test_stop_outside_a_run_is_an_error(self):
        sim = Simulator()
        with pytest.raises(EventLoopError, match="outside run"):
            sim.stop()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(EventLoopError, match="outside run"):
            sim.stop()

    def test_stop_on_the_event_that_exhausts_max_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=100.0, max_events=2) == 2
        assert sim.now == 2.0
        assert sim.run(until=100.0) == 1  # the request did not leak
        assert sim.now == 100.0

    def test_stop_inside_step(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is True
        assert sim.events_processed == 2

    def test_cancelled_front_event_is_left_alone_and_dropped_later(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, sim.stop)
        doomed = sim.schedule(2.0, seen.append, "doomed")
        sim.schedule(3.0, seen.append, "live")
        sim.cancel(doomed)
        assert sim.run() == 1
        assert sim.pending_events == 2  # the cancelled one still at the front
        assert sim.peek_time() == 3.0
        assert sim.run() == 1
        assert seen == ["live"]
        assert sim._cancelled == set()

    def test_stop_while_other_cancellations_are_pending(self):
        sim = Simulator()
        seen = []
        far = sim.schedule(9.0, seen.append, "far")
        sim.cancel(far)
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, seen.append, "next")
        assert sim.run() == 1
        assert sim._cancelled == {far[1]}
        assert sim.run() == 1
        assert seen == ["next"]

    def test_request_does_not_survive_a_raising_callback(self):
        sim = Simulator()

        def stop_then_fail():
            sim.stop()
            raise ValueError("boom")

        sim.schedule(1.0, stop_then_fail)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run()
        assert sim._cancelled == set()
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0


class TestClear:
    """``Simulator.clear``: what a settled run leaves queued is dropped,
    and nothing else changes."""

    def _settled(self):
        """A simulator stopped at t=2 with live and cancelled events queued."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, "late")
        cancelled = sim.schedule(4.0, fired.append, "cancelled")
        sim.cancel(cancelled)
        sim.run(until=10.0)
        return sim, fired, cancelled

    def test_drops_pending_and_cancelled_events(self):
        sim, fired, _cancelled = self._settled()
        assert sim.pending_events == 2
        sim.clear()
        assert_no_cancellation_residue(sim)
        assert sim.run() == 0
        assert sim.peek_time() is None
        assert fired == ["a"]

    def test_keeps_the_clock_and_the_counters(self):
        sim, _fired, _cancelled = self._settled()
        before = (sim.now, sim._seq, sim.events_processed, sim.queue_peak)
        sim.clear()
        assert (sim.now, sim._seq, sim.events_processed, sim.queue_peak) == before
        assert before == (2.0, 4, 2, 4)

    def test_a_later_schedule_runs_normally(self):
        sim, fired, cancelled = self._settled()
        sim.clear()
        sim.cancel(cancelled)  # dropped with the rest: a no-op
        event = sim.schedule(0.5, fired.append, "after")
        assert event[:2] == (2.5, 4)
        sim.schedule(3.0, fired.append, "later")
        assert sim.run() == 2
        assert fired == ["a", "after", "later"]
        assert sim.now == 5.0
        assert_no_cancellation_residue(sim)

    def test_cancelling_a_dropped_event_leaves_nothing_behind(self):
        sim, _fired, _cancelled = self._settled()
        late = sim._queue[0]
        assert late[0] == 3.0
        sim.clear()
        sim.schedule(0.5, lambda: None)
        sim.cancel(late)  # sorts after the new event, yet is gone
        assert sim._cancelled == set()
        assert sim.run() == 1

    def test_on_an_empty_queue(self):
        sim = Simulator()
        sim.clear()
        assert sim.now == 0.0 and sim.pending_events == 0

    def test_inside_run_is_an_error(self):
        sim = Simulator()
        failure = []

        def clear_inside():
            try:
                sim.clear()
            except EventLoopError:
                failure.append(True)

        sim.schedule(1.0, clear_inside)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2
        assert failure == [True]


class TestPeriodicProcess:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 2.0, lambda _: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_initial_delay_overrides_first_tick(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 2.0, lambda _: times.append(sim.now), phases=[(None, 0.5)])
        sim.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop_halts_future_ticks(self):
        sim = Simulator()
        times = []
        proc = PeriodicProcess(sim, 1.0, lambda _: times.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert proc.stopped

    def test_tick_count(self):
        sim = Simulator()
        proc = PeriodicProcess(sim, 1.0, lambda _: None)
        sim.run(until=4.5)
        assert proc.ticks == 4

    def test_stop_from_within_callback(self):
        sim = Simulator()
        proc_box = []

        def tick(_member):
            proc_box[0].stop()

        proc_box.append(PeriodicProcess(sim, 1.0, tick))
        sim.run(until=10.0)
        assert proc_box[0].ticks == 1
        # The tick being stopped had already fired: nothing to cancel,
        # nothing re-armed.
        assert sim.events_processed == 1
        assert_no_cancellation_residue(sim)

    def test_stop_twice_and_after_the_pending_tick_was_dropped(self):
        sim = Simulator()
        proc = PeriodicProcess(sim, 1.0, lambda _: None)
        sim.run(until=2.5)
        proc.stop()
        proc.stop()
        assert sim.pending_events == 1
        assert sim.run(until=10.0) == 0
        proc.stop()
        assert proc.ticks == 2
        assert_no_cancellation_residue(sim)

    def test_a_stopped_process_is_freed_by_reference_counting(self):
        sim = Simulator()
        proc = PeriodicProcess(sim, 1.0, lambda _: None)
        process = weakref.ref(proc)
        gc.disable()
        try:
            proc.stop()
            cancelled = set(sim._cancelled)
            proc.stop()  # a no-op
            assert sim._cancelled == cancelled and len(cancelled) == 1
            del proc
            sim.clear()  # the cancelled tick held the process's _tick
            assert process() is None
        finally:
            gc.enable()

    def test_nonpositive_period_rejected(self):
        with pytest.raises(SchedulingError):
            PeriodicProcess(Simulator(), 0.0, lambda _: None)

    def test_initial_delay_zero_fires_immediately(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 2.0, lambda _: times.append(sim.now), phases=[(None, 0)])
        sim.run(until=5.0)
        assert times == [0.0, 2.0, 4.0]

    def test_initial_delay_zero_after_time_advanced(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        times = []
        PeriodicProcess(sim, 1.0, lambda _: times.append(sim.now), phases=[(None, 0)])
        sim.run(until=5.0)
        assert times == [3.0, 4.0, 5.0]


class TestRunEdgeCases:
    """max_events × until interplay and peek after mass cancellation."""

    def test_max_events_stops_before_until(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        assert sim.run(until=2.5, max_events=1) == 1
        assert seen == [1.0]
        # Events remain inside the window, so the clock must NOT jump
        # to `until` — that would let them fire "in the past" later.
        assert sim.now == 1.0

    def test_resume_after_max_events_respects_until(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.run(until=2.5, max_events=1)
        assert sim.run(until=2.5) == 1
        assert seen == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_max_events_zero_like_budget_counts_live_events_only(self):
        sim = Simulator()
        seen = []
        sim.cancel(sim.schedule(1.0, lambda: None))
        sim.schedule(2.0, seen.append, 2.0)
        sim.schedule(3.0, seen.append, 3.0)
        # The cancelled event must not consume the budget.
        assert sim.run(max_events=1) == 1
        assert seen == [2.0]

    def test_max_events_zero_runs_nothing(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1.0)
        assert sim.run(max_events=0) == 0
        assert seen == []
        assert sim.pending_events == 1
        assert sim.now == 0.0
        assert sim.events_processed == 0
        # Clock handling as for any budget stop: an event is still
        # inside the window, so the clock stays; once nothing is, it
        # moves to `until`.
        assert sim.run(until=2.0, max_events=0) == 0
        assert sim.now == 0.0
        assert sim.run(until=0.5, max_events=0) == 0
        assert sim.now == 0.5
        assert sim.run() == 1
        assert seen == [1.0]

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1.0)
        with pytest.raises(EventLoopError):
            sim.run(max_events=-1)
        assert seen == []
        assert sim.pending_events == 1
        # The refused call did not leave the loop marked as running.
        assert sim.run() == 1

    def test_max_events_with_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=4.0, max_events=10) == 1
        assert sim.now == 4.0

    def test_peek_time_after_mass_cancellation(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events:
            sim.cancel(event)
        assert sim.peek_time() is None
        # peek purges the dead prefix eagerly.
        assert sim.pending_events == 0
        assert sim.run() == 0

    def test_peek_time_after_mass_cancellation_with_survivor(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
        survivor_time = 99.0
        sim.schedule(survivor_time, lambda: None)
        for event in events:
            sim.cancel(event)
        assert sim.peek_time() == survivor_time
        assert sim.pending_events == 1


class TestQueuePeak:
    def test_starts_at_zero(self):
        assert Simulator().queue_peak == 0

    def test_tracks_high_water_mark(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.queue_peak == 3
        sim.run()
        # Draining the queue does not lower the recorded peak.
        assert sim.queue_peak == 3

    def test_counts_events_scheduled_while_running(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule(2.0, lambda: None))
        sim.run()
        assert sim.queue_peak == 1

    def test_cancelled_events_still_count(self):
        sim = Simulator()
        events = [sim.schedule(float(t + 1), lambda: None) for t in range(4)]
        for event in events:
            sim.cancel(event)
        assert sim.queue_peak == 4
