"""Session-based churn: peers leave and rejoin (§3.1).

"Participant peers are highly dynamic and autonomous, failing or
leaving the network at any moment."  The headline experiments of the
paper run without parameterised churn, but staleness of cached indexes
is the motivation for Locaware's recency-based replacement (§4.1.2), so
the reproduction ships a churn process for ablation A5.

Model: each peer alternates exponential up-sessions (mean
``mean_session_s``) and down-times (mean ``mean_downtime_s``).  On
departure the peer's overlay links are torn down and its soft state
(the queries it has seen, protocol caches, Bloom filters) is discarded; its
*shared files stay on disk* and come back when it rejoins with fresh
random links — the natural-replication state survives churn, the index
state does not.
"""

from __future__ import annotations

import random

from .network import P2PNetwork

__all__ = ["ChurnProcess"]


class ChurnProcess:
    """Drives leave/rejoin events for every peer of a network."""

    def __init__(
        self,
        network: P2PNetwork,
        mean_session_s: float,
        mean_downtime_s: float,
        rng: random.Random,
    ) -> None:
        if mean_session_s <= 0 or mean_downtime_s <= 0:
            raise ValueError("session and downtime means must be positive")
        self._network = network
        self._mean_session = mean_session_s
        self._mean_downtime = mean_downtime_s
        self._rng = rng
        self.departures = 0
        self.rejoins = 0
        self._leave_counter = network.metrics.counter("churn.leaves")
        self._rejoin_counter = network.metrics.counter("churn.rejoins")

    @property
    def mean_session_s(self) -> float:
        """Current mean up-time used for future departure timers."""
        return self._mean_session

    @property
    def mean_downtime_s(self) -> float:
        """Current mean off-time used for future rejoin timers."""
        return self._mean_downtime

    def set_means(self, mean_session_s: float, mean_downtime_s: float) -> None:
        """Change the session/downtime means for *future* timers.

        Timers already armed keep their original delays; only
        departures/rejoins scheduled after this call see the new means.
        Used by scenario hooks (e.g. a churn storm collapsing session
        times mid-run and later restoring them).
        """
        if mean_session_s <= 0 or mean_downtime_s <= 0:
            raise ValueError("session and downtime means must be positive")
        self._mean_session = mean_session_s
        self._mean_downtime = mean_downtime_s

    def start(self) -> None:
        """Arm the first departure timer of every peer."""
        for peer in self._network.peers:
            self._schedule_departure(peer.peer_id)

    def _schedule_departure(self, peer_id: int) -> None:
        delay = self._rng.expovariate(1.0 / self._mean_session)
        self._network.sim.schedule(delay, self._leave, peer_id)

    def _schedule_rejoin(self, peer_id: int) -> None:
        delay = self._rng.expovariate(1.0 / self._mean_downtime)
        self._network.sim.schedule(delay, self._rejoin, peer_id)

    def _leave(self, peer_id: int) -> None:
        peer = self._network.peer(peer_id)
        if not peer.alive:
            return
        peer.alive = False
        self.departures += 1
        if self._network.graph.contains(peer_id):
            self._network.graph.remove_peer(peer_id)
        peer.reset_session_state()
        self._network.forget_queries_seen_by(peer_id)
        self._leave_counter.increment()
        tracer = self._network.tracer
        if tracer.enabled:
            tracer.emit(self._network.sim.now, "churn.leave", peer=peer_id)
        self._schedule_rejoin(peer_id)

    def _rejoin(self, peer_id: int) -> None:
        peer = self._network.peer(peer_id)
        if peer.alive:
            return
        peer.alive = True
        self.rejoins += 1
        links = max(1, round(self._network.config.mean_degree))
        self._network.graph.add_peer(peer_id, links, self._rng)
        self._rejoin_counter.increment()
        tracer = self._network.tracer
        if tracer.enabled:
            tracer.emit(self._network.sim.now, "churn.rejoin", peer=peer_id)
        self._schedule_departure(peer_id)
