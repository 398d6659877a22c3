"""Metric primitives: named counters, one registry per simulation run.

Protocols, the overlay and the scenarios count events (messages sent,
index hits, churn departures, Bloom pushes and their bits) in a
:class:`MetricRegistry`; its :meth:`~MetricRegistry.snapshot` is what a
run reports.  The paper's per-query figure series are not counted here:
they are computed once from the finished run's query outcomes
(:func:`repro.analysis.collectors.collect_series`).
"""

from __future__ import annotations

__all__ = ["Counter", "MetricRegistry"]


class Counter:
    """A monotonically increasing named counter.

    ``value`` (the current count) is a plain attribute, so per-message
    code can count in place (``counter.value += 1``) instead of paying
    a method call; :meth:`increment` is the checked form.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"Counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class MetricRegistry:
    """The named counters of one simulation run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter registered under ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def snapshot(self) -> dict[str, float]:
        """``counter.<name>`` → value of every registered counter, as floats."""
        return {
            f"counter.{name}": float(counter.value)
            for name, counter in self._counters.items()
        }
