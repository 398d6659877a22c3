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
        bound).  ``None`` = unlimited.
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
        max_queries: int | None = None,
    ) -> None:
        self._network = network
        self._issue = issue
        self._max_queries = max_queries
        config = network.config
        self._rng = network.streams.stream("workload")
        self._sampler = ZipfSampler(
            config.num_files, config.zipf_exponent, network.streams.stream("zipf")
        )
        self._generated = 0

    @property
    def generated(self) -> int:
        """Queries generated so far."""
        return self._generated

    @property
    def max_queries(self) -> int | None:
        """The generation bound (``None`` = unlimited)."""
        return self._max_queries

    @property
    def sampler(self) -> ZipfSampler:
        """The popularity sampler (exposed for analysis)."""
        return self._sampler

    def start(self) -> None:
        """Arm the first arrival timer."""
        self._schedule_next()

    def _system_rate(self) -> float:
        return (
            self._network.liveness.alive_count()
            * self._network.config.query_rate_per_peer
        )

    def _schedule_next(self) -> None:
        if self._max_queries is not None and self._generated >= self._max_queries:
            return
        rate = self._system_rate()
        if rate <= 0:
            # Everyone is down; retry when churn may have revived peers.
            self._network.sim.schedule(1.0, self._schedule_next)
            return
        delay = self._rng.expovariate(rate)
        self._network.sim.schedule(delay, self._arrival)

    def _arrival(self) -> None:
        alive_ids = self._network.alive_peer_ids()
        if alive_ids:
            origin = self._rng.choice(alive_ids)
            file_id = self._sample_file(origin)
            keywords = self._pick_keywords(file_id)
            self._generated += 1
            self._issue(origin, file_id, keywords)
        self._schedule_next()
        if self.on_arrival is not None:
            self.on_arrival()

    def _sample_file(self, origin: int) -> int:
        """Pick the queried file for an arrival at ``origin``.

        The base workload ignores the origin and draws from the global
        Zipf popularity; scenario workloads override this to skew demand
        per region, spike one file, and so on.
        """
        return self._sampler.sample()

    def _pick_keywords(self, file_id: int) -> tuple[str, ...]:
        """1–3 random keywords of the queried filename (§5.1)."""
        config = self._network.config
        all_keywords = self._network.catalog.keywords(file_id)
        upper = min(config.max_query_keywords, len(all_keywords))
        lower = min(config.min_query_keywords, upper)
        count = self._rng.randint(lower, upper)
        return tuple(sorted(self._rng.sample(all_keywords, count)))
