"""Per-call reference path of the underlay's latency queries.

``Underlay.latency_ms`` / ``rtt_ms`` / ``latency_s`` read closures the
latency model binds once over the peer placement.  The functions here
ask the model per call instead (two nearest-router searches for the
router model): the oracle ``tests/test_substrate_equivalence.py`` and
``tests/test_net_underlay.py`` hold the bound path against, and the
scan path ``benchmarks/test_perf_scale.py`` times it against.

Lived on :class:`repro.net.underlay.Underlay` as the ``scan_latency_ms``
/ ``scan_rtt_ms`` methods until they had no caller in ``src/``; a
reference implementation belongs with the tests that use it.
"""

from __future__ import annotations

from repro.net.underlay import Underlay

__all__ = ["scan_latency_ms", "scan_rtt_ms"]


def scan_latency_ms(underlay: Underlay, a: int, b: int) -> float:
    """One-way latency between peers ``a`` and ``b`` via the model's
    per-call path, in milliseconds."""
    return underlay.model.latency_ms(underlay.position_of(a), underlay.position_of(b))


def scan_rtt_ms(underlay: Underlay, a: int, b: int) -> float:
    """Round-trip time via the model's per-call path, in milliseconds."""
    return underlay.model.rtt_ms(underlay.position_of(a), underlay.position_of(b))
