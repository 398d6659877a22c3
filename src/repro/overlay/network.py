"""The assembled P2P system: peers + overlay + underlay + event engine.

:class:`P2PNetwork` is the object protocols operate on.  It owns

- the :class:`~repro.sim.engine.Simulator` (virtual time),
- the :class:`~repro.net.underlay.Underlay` (latencies, locIds),
- the :class:`~repro.overlay.graph.OverlayGraph` (who is linked to whom),
- the :class:`~repro.overlay.peer.Peer` population, and
- message delivery: :meth:`send` ships one payload from a peer to each
  peer of a fan-out, schedules a handler invocation on every
  destination after the underlay latency of its link, and counts the
  messages (per query when a ``query_id`` is given — the paper's
  search-traffic metric is "total number of messages produced by a
  query", §5.2).

Messages to dead peers are delivered nowhere but still count as sent —
bandwidth is consumed regardless of whether the destination is up.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property

from ..files.catalog import FileCatalog
from ..net.underlay import Underlay
from ..sim.config import SimulationConfig
from ..sim.engine import Simulator
from ..sim.metrics import Counter, MetricRegistry
from ..sim.rng import RandomStreams
from ..sim.tracing import NullTracer, Tracer
from .graph import OverlayGraph
from .peer import LivenessTable, Peer

__all__ = ["P2PNetwork"]


class P2PNetwork:
    """Everything a protocol needs to run one simulated system."""

    def __init__(
        self,
        config: SimulationConfig,
        sim: Simulator,
        underlay: Underlay,
        graph: OverlayGraph,
        peers: list[Peer],
        catalog: FileCatalog,
        streams: RandomStreams,
        metrics: MetricRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.underlay = underlay
        self.graph = graph
        self.peers = peers
        self.catalog = catalog
        self.streams = streams
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self._per_query_messages: dict[int, int] = {}
        # Struct-of-arrays liveness: the delivery check and the alive
        # census read flat flags instead of walking Peer objects.
        self.liveness = LivenessTable(len(peers))
        for peer in peers:
            peer.bind_liveness(self.liveness)
        self._alive_flags = self.liveness.flags
        # The underlay's bound seconds closure, one frame per message.
        self._latency_s = underlay.latency_s
        # Hot counters, resolved once instead of a registry dict lookup
        # per fan-out.
        self._total_counter = self.metrics.counter("messages.total")
        self._kind_counters = {
            "message": self.metrics.counter("messages.message"),
        }

    # Resolved once as well, but on first use: created at zero they
    # would add their keys to every run's metric snapshot and telemetry.
    @cached_property
    def _dropped_counter(self) -> Counter:
        return self.metrics.counter("messages.dropped_dead_peer")

    @cached_property
    def _rtt_probe_counter(self) -> Counter:
        return self.metrics.counter("messages.rtt_probe")

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        config: SimulationConfig,
        tracer: Tracer | None = None,
    ) -> P2PNetwork:
        """Assemble the paper's system from a configuration.

        Deterministic for a given ``config.seed``: topology, landmark
        ids, group ids, catalog, and initial shares each draw from
        their own named stream.

        Implemented as build + instantiate on a single-use
        :class:`~repro.overlay.blueprint.NetworkBlueprint`; callers
        that run the same topology repeatedly should hold the
        blueprint and instantiate it per run instead.
        """
        from .blueprint import NetworkBlueprint

        return NetworkBlueprint.build(config).instantiate(tracer=tracer)

    # -- peer access -----------------------------------------------------

    def peer(self, peer_id: int) -> Peer:
        """The peer with the given id."""
        return self.peers[peer_id]

    def alive_peer_ids(self) -> tuple[int, ...]:
        """Ids of every currently-alive peer (ascending), as the liveness
        table's shared immutable tuple."""
        return self.liveness.alive_ids()

    # -- messaging ---------------------------------------------------------

    def send(
        self,
        src: int,
        dsts: Sequence[int],
        handler: Callable[[int, object], None],
        payload: object,
        query_id: int | None = None,
        kind: str = "message",
    ) -> None:
        """Ship ``payload`` from ``src`` to each peer of ``dsts`` over the
        underlay: one message per destination, all sharing ``payload``.

        ``handler(dst, payload)`` runs after the link's one-way latency
        if ``dst`` is alive at arrival time, decided per destination.
        The messages are counted immediately (``kind`` counter, plus the
        per-query tally when ``query_id`` is given), ``len(dsts)`` at
        once; an empty ``dsts`` touches nothing.
        """
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
        self, dst: int, handler: Callable[[int, object], None], payload: object
    ) -> None:
        if self._alive_flags[dst]:
            handler(dst, payload)
        else:
            self._dropped_counter.increment()

    def query_message_count(self, query_id: int) -> int:
        """Messages attributed to ``query_id`` so far (§5.2 metric)."""
        return self._per_query_messages.get(query_id, 0)

    def charge_query_messages(self, query_id: int, count: int) -> None:
        """Attribute ``count`` extra messages to a query's traffic tally."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._per_query_messages[query_id] = (
            self._per_query_messages.get(query_id, 0) + count
        )

    def forget_query_messages(self, query_id: int) -> int:
        """Pop and return the final message tally of a finished query."""
        return self._per_query_messages.pop(query_id, 0)

    # -- probes ------------------------------------------------------------

    def rtt_probe_ms(
        self, src: int, candidates: list[int], query_id: int | None = None
    ) -> dict[int, float]:
        """Measure RTT from ``src`` to each candidate (§5.1 adjustment:
        requestors probe advertised providers when no locId matches).

        Each probe costs one request + one reply message, charged to
        ``query_id``'s tally when given.
        """
        results: dict[int, float] = {}
        for dst in candidates:
            self._rtt_probe_counter.increment(2)
            self._total_counter.increment(2)
            if query_id is not None:
                self.charge_query_messages(query_id, 2)
            results[dst] = self.underlay.rtt_ms(src, dst)
        return results
