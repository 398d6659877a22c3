"""Per-peer sliding window of seen query ids: the duplicate-suppression
oracle.

Until the network kept one table of the queries in flight
(:meth:`repro.overlay.network.P2PNetwork.open_query`), every peer held
a ``BoundedSet(2048)`` of the query ids it had processed, cleared when
it left.  ``tests/test_property_dedup.py`` replays random queries,
forwards and churn against one of these per peer and holds every
delivery's first-copy / duplicate decision to it.  No golden or
benchmark cell ever filled a window (the largest held 1 020 ids), so
the oracle's evictions never enter those comparisons either.
"""

from __future__ import annotations

from typing import Any

__all__ = ["BoundedSet"]


class BoundedSet:
    """An insertion-ordered set that evicts its oldest members.

    Backed by a plain ``dict``, which iterates in insertion order, so
    its first key is the oldest.
    """

    __slots__ = ("_capacity", "_items")

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._items: dict[Any, None] = {}

    def add(self, item: Any) -> bool:
        """Insert ``item``; returns ``False`` if it was already present."""
        items = self._items
        if item in items:
            return False
        items[item] = None
        if len(items) > self._capacity:
            del items[next(iter(items))]
        return True

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def clear(self) -> None:
        """Forget everything."""
        self._items.clear()
