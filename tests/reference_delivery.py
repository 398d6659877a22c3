"""The message delivery the network had before handlers owned the drop.

``P2PNetwork.send`` used to schedule a trampoline per message,
``P2PNetwork._deliver(dst, handler, payload)``: it ran the handler only
when ``dst`` was alive at arrival, and counted the message under
``messages.dropped_dead_peer`` itself when it was not.  Now ``send``
schedules the handler, and each handler makes the dead-at-arrival drop
as its first step.

:func:`reference_delivery` puts the old ``send`` and ``_deliver`` back
on :class:`~repro.overlay.network.P2PNetwork` for the life of a
:class:`pytest.MonkeyPatch`, so a cell can be run both ways and compared
(``tests/test_reference_delivery.py``).  Under it a handler never sees
a dead destination, so its own check never fires: the comparison holds
that check to the trampoline's.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import pytest

from repro.overlay.network import P2PNetwork

__all__ = ["reference_delivery"]


def _send(
    self: P2PNetwork,
    src: int,
    dsts: Sequence[int],
    handler: Callable[[int, object], None],
    payload: object,
    query_id: int | None = None,
    kind: str = "message",
) -> None:
    count = len(dsts)
    if not count:
        return
    kind_counter = self._kind_counters.get(kind)
    if kind_counter is None:
        kind_counter = self._kind_counters[kind] = self.metrics.counter(
            f"messages.{kind}"
        )
    kind_counter.value += count
    self._total_counter.value += count
    if query_id is not None:
        tallies = self._per_query_messages
        tallies[query_id] = tallies.get(query_id, 0) + count
    self.sim.schedule_fanout(
        self._latency_s, src, dsts, self._deliver, handler, payload
    )


def _deliver(
    self: P2PNetwork,
    dst: int,
    handler: Callable[[int, object], None],
    payload: object,
) -> None:
    if self.liveness.flags[dst]:
        handler(dst, payload)
    else:
        self.dropped_dead_peer.increment()


def reference_delivery(mp: pytest.MonkeyPatch) -> None:
    """Deliver every message through the trampoline while ``mp`` lives."""
    mp.setattr(P2PNetwork, "send", _send)
    mp.setattr(P2PNetwork, "_deliver", _deliver, raising=False)
