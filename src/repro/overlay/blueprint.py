"""Blueprint/instance split: build the immutable world once, run it many times.

Every ``run_protocol`` call used to rebuild the complete immutable
world — underlay latencies, overlay wiring, file catalog, initial
shares — even though the same seed deterministically yields the same
topology.  :class:`NetworkBlueprint` captures that world exactly once:

- :meth:`NetworkBlueprint.build` performs the expensive construction
  (it consumes precisely the build-time RNG streams,
  :data:`~repro.sim.config.BUILD_STREAM_NAMES`);
- :meth:`NetworkBlueprint.instantiate` stamps out a fresh
  :class:`~repro.overlay.network.P2PNetwork` — new simulator, fresh
  peers and file stores, a fresh run-time-only stream factory — in a
  fraction of the build cost.

The split is safe because the world has two sharply different halves:

- **shared, immutable**: the :class:`~repro.net.underlay.Underlay`
  (positions, latencies, locIds) and the
  :class:`~repro.files.catalog.FileCatalog` are never mutated after
  construction, so every instance aliases the blueprint's objects;
- **copied or rebuilt per instance**: the overlay graph (churn rewires
  it; the copy shares the pristine row tuples, which never change), the
  peer population (stores grow with downloads, protocol state changes)
  and its liveness table, the simulator, metrics, and every run-time
  RNG stream.

Because :class:`~repro.sim.rng.RandomStreams` seeds each named stream
independently from ``(master_seed, name)``, a fresh factory that never
draws the build streams produces byte-identical run-time streams — so
an instantiated run is indistinguishable from a from-scratch build
(``tests/test_determinism.py`` locks this in, serial and parallel).

Blueprint reuse across *configurations* is governed by
:meth:`~repro.sim.config.SimulationConfig.topology_fingerprint`: any
config whose topology-affecting fields match the blueprint's may be
instantiated on it, with run-time fields (query rates, TTL, cache
sizes, churn) varying freely.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..files.catalog import FileCatalog
from ..files.keywords import KeywordPool
from ..files.storage import FileStore
from ..net.underlay import Underlay
from ..sim.config import BUILD_STREAM_NAMES, SimulationConfig
from ..sim.engine import Simulator
from ..sim.gc_pause import gc_paused
from ..sim.rng import RandomStreams
from ..sim.tracing import Tracer
from .graph import OverlayGraph
from .network import P2PNetwork
from .peer import LivenessTable, Peer

__all__ = ["BlueprintCache", "NetworkBlueprint", "build_count", "build_underlay"]

#: Module-wide tally of topology builds, for benchmarks and tests that
#: must prove a code path built the world exactly N times.
_build_count = 0


def build_count() -> int:
    """How many :meth:`NetworkBlueprint.build` calls this process has run."""
    return _build_count


def _gids_and_shares(
    num_peers: int,
    group_count: int,
    num_files: int,
    files_per_peer: int,
    gid_rng: random.Random,
    share_rng: random.Random,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Every peer's group id and initial shares, in peer-id order.

    A gid is ``gid_rng.randrange(group_count)`` and a peer's shares are
    ``share_rng.sample(range(num_files), files_per_peer)``.  The gid and
    the set branch of ``sample`` (``num_files > 21``,
    ``files_per_peer <= 5``) are drawn inline: the same getrandbits
    words in the same order (tests/test_property_inline_draws.py pins
    both to the stdlib).
    """
    gid_bits = group_count.bit_length()
    share_bits = num_files.bit_length()
    gid_getrandbits = gid_rng.getrandbits
    share_getrandbits = share_rng.getrandbits
    inline_shares = 0 <= files_per_peer <= 5 and num_files > 21
    gids = []
    shares = []
    for _pid in range(num_peers):
        if inline_shares:
            picked: list[int] = []
            for _ in range(files_per_peer):
                r = share_getrandbits(share_bits)
                while r >= num_files or r in picked:
                    r = share_getrandbits(share_bits)
                picked.append(r)
            shares.append(tuple(picked))
        else:
            shares.append(tuple(share_rng.sample(range(num_files), files_per_peer)))
        r = gid_getrandbits(gid_bits)
        while r >= group_count:
            r = gid_getrandbits(gid_bits)
        gids.append(r)
    return tuple(gids), tuple(shares)


def build_underlay(
    config: SimulationConfig, streams: RandomStreams | None = None
) -> Underlay:
    """The underlay of ``config``'s world, alone.

    :meth:`NetworkBlueprint.build` calls this with its own factory, and
    every named stream is seeded from ``(config.seed, name)`` alone, so
    the result equals that world's ``underlay`` whether ``streams`` is
    given or not — a reader that needs only positions and locIds need
    not build, or keep, the whole world.  Draws the ``router-topology``
    and ``underlay`` streams.
    """
    if streams is None:
        streams = RandomStreams(config.seed)
    if config.latency_model == "router":
        from ..net.latency import RouterLevelLatencyModel

        model = RouterLevelLatencyModel(
            streams.stream("router-topology"),
            min_latency_ms=config.min_latency_ms,
            max_latency_ms=config.max_latency_ms,
        )
    else:
        model = None  # Underlay.build defaults to the Euclidean model
    return Underlay.build(
        config.num_peers,
        streams.stream("underlay"),
        min_latency_ms=config.min_latency_ms,
        max_latency_ms=config.max_latency_ms,
        num_landmarks=config.num_landmarks,
        clustered=(config.peer_placement == "clustered"),
        model=model,
    )


@dataclass(frozen=True)
class NetworkBlueprint:
    """The immutable world of one simulated system, ready to instantiate."""

    config: SimulationConfig
    """The configuration the world was built from."""

    underlay: Underlay
    """Physical positions, latencies, locIds (immutable; shared)."""

    graph: OverlayGraph
    """Pristine overlay wiring (copied per instance; churn mutates it)."""

    catalog: FileCatalog
    """The global file pool (immutable; shared)."""

    gids: tuple[int, ...]
    """Per-peer Dicas group ids, indexed by peer id."""

    initial_shares: tuple[tuple[int, ...], ...]
    """Per-peer initial file endowments, indexed by peer id."""

    fingerprint: str
    """``config.topology_fingerprint()`` at build time (the cache key)."""

    @classmethod
    @gc_paused()
    def build(cls, config: SimulationConfig) -> NetworkBlueprint:
        """Construct the paper's immutable world from a configuration.

        Deterministic for a given ``config.seed``: underlay, overlay
        wiring, catalog, group ids, and initial shares each draw from
        their own named build-time stream.  Runs with the cyclic
        collector paused (:mod:`repro.sim.gc_pause`).
        """
        global _build_count
        _build_count += 1
        streams = RandomStreams(config.seed)
        underlay = build_underlay(config, streams)
        graph = OverlayGraph.random(
            config.num_peers, config.mean_degree, streams.stream("overlay")
        )
        pool = KeywordPool(config.keyword_pool_size)
        catalog = FileCatalog.generate(
            config.num_files,
            config.keywords_per_file,
            pool,
            streams.stream("catalog"),
        )
        gids, initial_shares = _gids_and_shares(
            config.num_peers,
            config.group_count,
            config.num_files,
            config.files_per_peer,
            streams.stream("gids"),
            streams.stream("shares"),
        )
        return cls(
            config=config,
            underlay=underlay,
            graph=graph,
            catalog=catalog,
            gids=gids,
            initial_shares=initial_shares,
            fingerprint=config.topology_fingerprint(),
        )

    def compatible_with(self, config: SimulationConfig) -> bool:
        """Whether ``config`` may be instantiated on this blueprint."""
        return config.topology_fingerprint() == self.fingerprint

    def instantiate(
        self,
        config: SimulationConfig | None = None,
        tracer: Tracer | None = None,
    ) -> P2PNetwork:
        """Stamp out a fresh, independent :class:`P2PNetwork`.

        ``config`` may override the blueprint's configuration as long
        as every topology field matches (same fingerprint); this is how
        a scenario that only touches run-time knobs (churn means, query
        rates) runs on a cached build.  The returned network has its
        own simulator, metrics, peers, liveness table, file stores,
        overlay copy, and a run-time-only stream factory — nothing
        run-mutable is shared with other instances.
        """
        cfg = self.config if config is None else config
        if cfg is not self.config and not self.compatible_with(cfg):
            raise ValueError(
                "config is topology-incompatible with this blueprint "
                f"(fingerprint {cfg.topology_fingerprint()[:12]}... != "
                f"{self.fingerprint[:12]}...); rebuild instead of instantiating"
            )
        streams = RandomStreams(cfg.seed, forbidden=BUILD_STREAM_NAMES)
        liveness = LivenessTable(cfg.num_peers)
        peers = []
        for pid in range(cfg.num_peers):
            store = FileStore(self.catalog)
            store.add_many(self.initial_shares[pid])
            peers.append(
                Peer(
                    peer_id=pid,
                    locid=self.underlay.locid_of(pid),
                    gid=self.gids[pid],
                    store=store,
                    liveness=liveness,
                )
            )
        return P2PNetwork(
            config=cfg,
            sim=Simulator(),
            underlay=self.underlay,
            graph=self.graph.copy(),
            peers=peers,
            liveness=liveness,
            catalog=self.catalog,
            streams=streams,
            tracer=tracer,
        )


class BlueprintCache:
    """A per-process LRU of built blueprints, keyed by topology fingerprint.

    One instance lives at module level in :mod:`repro.experiments.grid`
    so that ``fork``-started worker processes inherit the parent's
    built worlds copy-on-write: :meth:`prewarm` builds every distinct
    fingerprint of an upcoming batch *in the parent*, the pool forks,
    and each worker's :meth:`get` is a pure cache hit — the immutable
    underlay/catalog ship to workers exactly once, at fork time,
    instead of being rebuilt (or pickled) per task.

    The bound is in what the cache holds: ``max_peers`` caps the
    summed ``num_peers`` of the cached worlds and ``max_worlds`` their
    number (a world's fixed parts — router topology, keyword pool — do
    not shrink with its population, so small worlds are bounded by
    count), whichever binds first; :meth:`fits` is the whole policy.
    A miss evicts least-recently-used worlds *before* it builds, so a
    victim is never alive during the build that replaces it, and a
    world larger than the whole budget is held alone.

    The budget bounds what a process may hold, not how long it holds
    it: a caller that knows no later cell runs on a world hands it back
    with :meth:`release` (a grid run does, as each topology's last cell
    resolves), so a world is built again only if it is asked for again.
    """

    def __init__(self, max_peers: int, max_worlds: int) -> None:
        if max_peers < 1:
            raise ValueError(f"max_peers must be >= 1, got {max_peers}")
        if max_worlds < 1:
            raise ValueError(f"max_worlds must be >= 1, got {max_worlds}")
        self.max_peers = max_peers
        self.max_worlds = max_worlds
        self._blueprints: OrderedDict[str, NetworkBlueprint] = OrderedDict()

    def fits(self, configs: Sequence[SimulationConfig]) -> bool:
        """Whether these worlds may be cached together (one always may)."""
        return len(configs) <= 1 or (
            len(configs) <= self.max_worlds
            and sum(config.num_peers for config in configs) <= self.max_peers
        )

    def get(self, config: SimulationConfig) -> NetworkBlueprint:
        """The blueprint for ``config``, built only if it is not cached."""
        fingerprint = config.topology_fingerprint()
        blueprint = self._blueprints.get(fingerprint)
        if blueprint is not None:
            self._blueprints.move_to_end(fingerprint)
            return blueprint
        while not self.fits(
            [held.config for held in self._blueprints.values()] + [config]
        ):
            self._blueprints.popitem(last=False)
        # The victims are unreferenced, hence freed, before the build.
        blueprint = self._blueprints[fingerprint] = NetworkBlueprint.build(config)
        return blueprint

    def prewarm(self, configs: Iterable[SimulationConfig]) -> int:
        """Build every distinct topology among ``configs``; count builds.

        One :meth:`NetworkBlueprint.build` per distinct fingerprint not
        already cached.  The budget is :meth:`get`'s: every prewarmed
        world is still cached afterwards only if the batch :meth:`fits`
        (``experiments.grid._capped_prebuild`` sees to that).
        """
        distinct: OrderedDict[str, SimulationConfig] = OrderedDict()
        for config in configs:
            distinct.setdefault(config.topology_fingerprint(), config)
        # Touch the already-cached members first so the builds below
        # evict worlds *outside* this batch before any inside it.
        for fingerprint in distinct:
            if fingerprint in self._blueprints:
                self._blueprints.move_to_end(fingerprint)
        built = 0
        for fingerprint, config in distinct.items():
            if fingerprint not in self._blueprints:
                self.get(config)
                built += 1
        return built

    def release(self, fingerprint: str) -> None:
        """Drop the world cached under ``fingerprint``, if any (the
        inverse of :meth:`get`, for a caller done with that world)."""
        self._blueprints.pop(fingerprint, None)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._blueprints

    def __len__(self) -> int:
        return len(self._blueprints)

    def clear(self) -> None:
        """Drop every cached blueprint."""
        self._blueprints.clear()
