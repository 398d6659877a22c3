"""Unit tests for counters and the per-run metric registry."""

import pytest

from repro.sim import Counter, MetricRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_increment_default_is_one(self):
        c = Counter("x")
        c.increment()
        assert c.value == 1

    def test_increment_by_amount(self):
        c = Counter("x")
        c.increment(5)
        c.increment(3)
        assert c.value == 8

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_value_counts_in_place(self):
        # The per-message form: same counter, no method call.
        c = Counter("x")
        c.value += 1
        c.increment(2)
        assert c.value == 3
        assert repr(c) == "Counter('x', value=3)"


class TestMetricRegistry:
    def test_counter_is_memoised(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_snapshot_holds_every_counter_as_a_float(self):
        reg = MetricRegistry()
        reg.counter("msgs").increment(3)
        reg.counter("idle")
        snap = reg.snapshot()
        assert snap == {"counter.msgs": 3.0, "counter.idle": 0.0}
        assert all(type(value) is float for value in snap.values())
