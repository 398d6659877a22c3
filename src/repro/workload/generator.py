"""Query workload generation (§5.1).

Queries arrive as a Poisson process: each peer submits queries at
0.00083 queries/second, so the *system* inter-arrival time is
exponential with rate ``num_alive_peers × per-peer rate`` and each
arrival picks a uniformly random alive peer as the requestor.  The
queried file is Zipf-sampled; the query text is 1–3 keywords drawn at
random from the queried filename ("we randomly choose 1 to 3 keywords
from the queried filename").

The generator drives the protocol through a single callback —
``issue(origin_peer, file_id, keywords)`` — so the identical workload
(same seed) can be replayed against Flooding, Dicas, Dicas-Keys, and
Locaware, which is what makes the paper's head-to-head comparison fair.
"""

from __future__ import annotations

from collections.abc import Callable

from ..overlay.network import P2PNetwork
from .zipf import ZipfSampler

__all__ = ["QueryWorkload"]


class QueryWorkload:
    """Poisson arrivals of Zipf-popular keyword queries.

    Parameters
    ----------
    network:
        The assembled system (provides the simulator, catalog, config).
    issue:
        Callback invoked at each arrival:
        ``issue(origin, file_id, keywords)``.
    max_queries:
        Stop generating after this many queries (the experiments' x-axis
        bound).
    sample_file:
        ``sample_file(origin) -> file_id``, the queried file of an
        arrival at ``origin`` (default: the global Zipf draw).  A
        scenario that skews demand — one spiked file, one hot region —
        passes its own.
    rate_factor:
        ``rate_factor(now) -> float``, a multiplier of the system
        arrival rate at virtual time ``now`` (default: none).  The
        diurnal scenario passes its day/night swing.
    """

    #: Called, when set, at the end of every arrival — after the query
    #: was issued and the next arrival armed.  The experiment driver
    #: sets it: the last arrival is one of the two moments a run can
    #: become settled (the origin may answer it from its own files,
    #: leaving nothing pending).
    on_arrival: Callable[[], None] | None = None

    def __init__(
        self,
        network: P2PNetwork,
        issue: Callable[[int, int, tuple[str, ...]], None],
        max_queries: int,
        *,
        sample_file: Callable[[int], int] | None = None,
        rate_factor: Callable[[float], float] | None = None,
    ) -> None:
        self._network = network
        self._issue = issue
        self._max_queries = max_queries
        config = network.config
        self._rng = network.streams.stream("workload")
        self._sampler = ZipfSampler(
            config.num_files, config.zipf_exponent, network.streams.stream("zipf")
        )
        self._sample_file = sample_file
        self._rate_factor = rate_factor
        self._generated = 0

    @property
    def generated(self) -> int:
        """Queries generated so far."""
        return self._generated

    @property
    def max_queries(self) -> int:
        """The generation bound."""
        return self._max_queries

    @property
    def sampler(self) -> ZipfSampler:
        """The popularity sampler (exposed for analysis)."""
        return self._sampler

    def start(self) -> None:
        """Arm the first arrival timer."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._generated >= self._max_queries:
            return
        network = self._network
        rate = network.liveness.alive_count() * network.config.query_rate_per_peer
        if self._rate_factor is not None:
            rate *= self._rate_factor(network.sim.now)
        if rate <= 0:
            # Everyone is down; retry when churn may have revived peers.
            network.sim.schedule(1.0, self._schedule_next)
            return
        network.sim.schedule(self._rng.expovariate(rate), self._arrival)

    def _arrival(self) -> None:
        alive_ids = self._network.alive_peer_ids()
        if alive_ids:
            origin = self._rng.choice(alive_ids)
            sample_file = self._sample_file
            file_id = (
                sample_file(origin) if sample_file is not None
                else self._sampler.sample()
            )
            keywords = self._pick_keywords(file_id)
            self._generated += 1
            self._issue(origin, file_id, keywords)
        self._schedule_next()
        if self.on_arrival is not None:
            self.on_arrival()

    def _pick_keywords(self, file_id: int) -> tuple[str, ...]:
        """1–3 random keywords of the queried filename (§5.1)."""
        config = self._network.config
        all_keywords = self._network.catalog.keywords(file_id)
        upper = min(config.max_query_keywords, len(all_keywords))
        lower = min(config.min_query_keywords, upper)
        count = self._rng.randint(lower, upper)
        return tuple(sorted(self._rng.sample(all_keywords, count)))
