"""Collector-free regions: pause CPython's cyclic GC around bulk allocation.

Building a world and running a cell allocate hundreds of thousands of
long-lived container objects and — pinned by
``tests/test_gc_discipline.py`` — create no cyclic garbage.  Every
collection triggered inside such a region therefore finds nothing, yet
a full one re-walks the live network and every cached blueprint.
:func:`gc_paused` switches the collector off for the region.  A
finished cell leaves no cycle behind either (``run_protocol`` clears
its simulator's leftover events), so reference counting frees the
network as the cell returns and no young collection follows it; the
one collection left is the walk of a freshly built blueprint.

This is the only module under ``src/repro`` allowed to switch the
collector (``repro lint`` rule RPR007).
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the ``with`` body (or, as
    ``@gc_paused()``, for each call of the decorated function).

    Re-entrant: a region entered while the collector is already off —
    nested in another region, or under a caller's own ``gc.disable()``
    — changes nothing, so only the outermost region re-enables, also
    when the body raises.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
