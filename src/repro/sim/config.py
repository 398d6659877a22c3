"""Simulation configuration.

:class:`SimulationConfig` gathers every knob of the reproduction in one
frozen dataclass whose defaults are exactly the paper's §5.1 setup:

- 1000 peers, average overlay degree 3, TTL 7;
- underlay latencies 10–500 ms (BRITE-inspired);
- 4 landmarks (4! = 24 locIds);
- 3000-file pool, 3 files shared per peer, 3 keywords per filename
  drawn from a 9000-keyword pool;
- Zipf query workload at 0.00083 queries/second/peer, 1–3 keywords per
  query;
- response index capacity 50 filenames; 1200-bit Bloom filters.

Every field is checked in ``__post_init__`` — first its type against
its default's, then its range — so that a bad sweep value fails fast
with a :class:`~repro.sim.errors.ConfigurationError` naming the field
instead of corrupting a long simulation run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from .errors import ConfigurationError

__all__ = [
    "SimulationConfig",
    "TOPOLOGY_FIELDS",
    "BUILD_STREAM_NAMES",
    "RUN_STREAM_NAMES",
]

#: Config fields that shape the immutable world a
#: :class:`~repro.overlay.blueprint.NetworkBlueprint` captures: peer
#: population and placement, underlay latencies, overlay wiring, the
#: file catalog, initial shares, group ids, and the master seed.  Two
#: configs that agree on every one of these build byte-identical
#: topologies; every other field only affects *run-time* behaviour and
#: may vary freely across instantiations of the same blueprint.
TOPOLOGY_FIELDS = frozenset(
    {
        "num_peers",
        "mean_degree",
        "min_latency_ms",
        "max_latency_ms",
        "num_landmarks",
        "latency_model",
        "peer_placement",
        "num_files",
        "files_per_peer",
        "keywords_per_file",
        "keyword_pool_size",
        "group_count",
        "seed",
    }
)

#: Named RNG streams consumed while *building* the world (underlay
#: coordinates, router topology, overlay wiring, catalog generation,
#: group ids, initial shares).  They are drawn exactly once per
#: blueprint; run-time code must never touch them, or instantiating a
#: cached blueprint would diverge from a from-scratch build.
#: :meth:`~repro.overlay.blueprint.NetworkBlueprint.instantiate`
#: enforces this by handing the network a stream factory with these
#: names forbidden.
BUILD_STREAM_NAMES = frozenset(
    {"underlay", "router-topology", "overlay", "catalog", "gids", "shares"}
)

#: The core *run-time* streams (workload arrivals, popularity sampling,
#: churn, protocol tie-breaking, scenario workloads).  Not exhaustive —
#: new scenarios may introduce streams of their own — but any run-time
#: stream name must stay disjoint from :data:`BUILD_STREAM_NAMES`.
RUN_STREAM_NAMES = frozenset(
    {
        "workload",
        "zipf",
        "churn",
        "popularity-shift",
        "bloom-router",
        "flash-crowd",
        "regional-hotspot",
    }
)


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulated system (defaults = paper §5.1)."""

    # -- population / overlay ------------------------------------------------
    num_peers: int = 1000
    """Number of participant peers (paper: 1000)."""

    mean_degree: float = 3.0
    """Average overlay connectivity degree (paper: 3)."""

    # -- underlay ----------------------------------------------------------
    min_latency_ms: float = 10.0
    """Smallest one-way link latency in milliseconds (paper/BRITE: 10)."""

    max_latency_ms: float = 500.0
    """Largest one-way link latency in milliseconds (paper/BRITE: 500)."""

    num_landmarks: int = 4
    """Landmark machines used to derive locIds (paper: 4 → 24 locIds)."""

    latency_model: str = "euclidean"
    """Underlay latency substrate: ``euclidean`` (distance-scaled, the
    default) or ``router`` (Waxman router graph with shortest-path
    latencies — closer to BRITE's actual output, slower to build)."""

    peer_placement: str = "clustered"
    """Peer coordinate layout: ``clustered`` (AS-like clumps, default)
    or ``uniform`` (uniform over the unit square)."""

    # -- files ----------------------------------------------------------------
    num_files: int = 3000
    """Size of the shared-file pool (paper: 3000)."""

    files_per_peer: int = 3
    """Files each peer shares initially (paper: 3)."""

    keywords_per_file: int = 3
    """Keywords forming each filename (paper: 3)."""

    keyword_pool_size: int = 9000
    """Size of the keyword vocabulary (paper: 9000)."""

    # -- workload -----------------------------------------------------------
    query_rate_per_peer: float = 0.00083
    """Query arrival rate per peer, in queries/second (paper: 0.00083)."""

    zipf_exponent: float = 1.0
    """Zipf skew of the file-popularity distribution (paper: "Zipf")."""

    min_query_keywords: int = 1
    """Fewest keywords a query may contain (paper: 1)."""

    max_query_keywords: int = 3
    """Most keywords a query may contain (paper: 3)."""

    ttl: int = 7
    """Search TTL bound (paper: 7)."""

    # -- caching -------------------------------------------------------------
    group_count: int = 4
    """Dicas/Locaware group-id modulus M (Dicas-style system parameter)."""

    fallback_fanout: int = 2
    """Neighbors tried by the last-resort forwarding step (§4.2's
    "highly connected neighbor"); >1 keeps restricted routing from
    dead-ending on sparse overlays."""

    index_capacity: int = 50
    """Response-index capacity in distinct filenames (paper: ~50)."""

    max_providers_per_file: int = 5
    """Locaware: provider entries kept per cached filename (§4.1.2)."""

    # -- Bloom filters -----------------------------------------------------
    bloom_bits: int = 1200
    """Bloom filter size in bits (paper: 1200)."""

    bloom_hashes: int = 4
    """Number of hash functions per Bloom filter."""

    bloom_update_period_s: float = 60.0
    """Seconds between pushes of Bloom-filter deltas to neighbors (§4.2)."""

    # -- query lifecycle -------------------------------------------------
    response_window_s: float = 2.0
    """How long a requestor collects responses after the first arrives."""

    query_timeout_s: float = 30.0
    """A query with no response after this long counts as failed."""

    # -- churn (off by default; the paper's headline figures do not
    # parameterise churn; see README.md "The ablations' claims", A5) -----
    churn_enabled: bool = False
    """Whether peers leave/join during the run."""

    mean_session_s: float = 3600.0
    """Mean up-time of a peer when churn is enabled."""

    mean_downtime_s: float = 600.0
    """Mean off-time before a departed peer rejoins."""

    # -- bookkeeping -------------------------------------------------------
    seed: int = 20090322
    """Master seed (default: the DAMAP'09 workshop date)."""

    def __post_init__(self) -> None:
        for name, accepted in _FIELD_TYPES:
            value = getattr(self, name)
            if type(value) not in accepted:
                raise ConfigurationError(
                    f"{name} must be {_TYPE_NAMES[accepted[-1]]}, got {value!r}"
                )
        self._require(self.num_peers >= 2, "num_peers must be >= 2")
        self._require(self.mean_degree > 0, "mean_degree must be positive")
        self._require(
            self.mean_degree < self.num_peers,
            "mean_degree must be below num_peers",
        )
        self._require(self.min_latency_ms > 0, "min_latency_ms must be positive")
        self._require(
            self.max_latency_ms >= self.min_latency_ms,
            "max_latency_ms must be >= min_latency_ms",
        )
        self._require(self.num_landmarks >= 1, "num_landmarks must be >= 1")
        self._require(self.num_landmarks <= 8, "num_landmarks above 8 is unsupported (8! locIds)")
        self._require(
            self.latency_model in ("euclidean", "router"),
            "latency_model must be 'euclidean' or 'router'",
        )
        self._require(
            self.peer_placement in ("clustered", "uniform"),
            "peer_placement must be 'clustered' or 'uniform'",
        )
        self._require(self.num_files >= 1, "num_files must be >= 1")
        self._require(self.files_per_peer >= 0, "files_per_peer must be >= 0")
        self._require(
            self.files_per_peer <= self.num_files,
            "files_per_peer cannot exceed num_files",
        )
        self._require(self.keywords_per_file >= 1, "keywords_per_file must be >= 1")
        self._require(
            self.keyword_pool_size >= self.keywords_per_file,
            "keyword_pool_size must be >= keywords_per_file",
        )
        self._require(self.query_rate_per_peer > 0, "query_rate_per_peer must be positive")
        self._require(self.zipf_exponent >= 0, "zipf_exponent must be >= 0")
        self._require(self.min_query_keywords >= 1, "min_query_keywords must be >= 1")
        self._require(
            self.min_query_keywords <= self.max_query_keywords,
            "min_query_keywords must be <= max_query_keywords",
        )
        self._require(
            self.max_query_keywords <= self.keywords_per_file,
            "max_query_keywords cannot exceed keywords_per_file",
        )
        self._require(self.ttl >= 1, "ttl must be >= 1")
        self._require(self.group_count >= 1, "group_count must be >= 1")
        self._require(self.fallback_fanout >= 1, "fallback_fanout must be >= 1")
        self._require(self.index_capacity >= 1, "index_capacity must be >= 1")
        self._require(self.max_providers_per_file >= 1, "max_providers_per_file must be >= 1")
        self._require(self.bloom_bits >= 8, "bloom_bits must be >= 8")
        self._require(self.bloom_hashes >= 1, "bloom_hashes must be >= 1")
        self._require(self.bloom_update_period_s > 0, "bloom_update_period_s must be positive")
        self._require(self.response_window_s > 0, "response_window_s must be positive")
        self._require(self.query_timeout_s > 0, "query_timeout_s must be positive")
        self._require(
            self.query_timeout_s >= self.response_window_s,
            "query_timeout_s must be >= response_window_s",
        )
        self._require(self.mean_session_s > 0, "mean_session_s must be positive")
        self._require(self.mean_downtime_s > 0, "mean_downtime_s must be positive")

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise ConfigurationError(message)

    def replace(self, **changes: Any) -> SimulationConfig:
        """Return a copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def topology_fingerprint(self) -> str:
        """Stable hash of every :data:`TOPOLOGY_FIELDS` value.

        Two configurations with equal fingerprints deterministically
        build identical worlds (underlay, overlay graph, catalog,
        initial shares, group ids), so a cached
        :class:`~repro.overlay.blueprint.NetworkBlueprint` keyed by
        this value can be instantiated for either.  SHA-256 over a
        canonical JSON payload, so the value is stable across Python
        versions and worker processes.
        """
        payload = {name: getattr(self, name) for name in sorted(TOPOLOGY_FIELDS)}
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict view, handy for experiment records and reports.

        Equal to ``dataclasses.asdict(self)`` for as long as every field
        is a scalar (``int | float | bool | str``): a flat copy is then
        a deep one.  ``tests/test_sim_config.py`` fails on a field that
        is not.
        """
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def paper_defaults(cls) -> SimulationConfig:
        """The exact §5.1 configuration."""
        return cls()

    @classmethod
    def small(cls, seed: int = 7) -> SimulationConfig:
        """A scaled-down configuration for tests and quick examples.

        Keeps every *ratio* of the paper setup (files per peer, keyword
        pool density, query-keyword bounds) while shrinking the
        population so unit and integration tests run in milliseconds.
        """
        return cls(
            num_peers=60,
            num_files=180,
            keyword_pool_size=540,
            query_rate_per_peer=0.01,
            index_capacity=20,
            bloom_bits=512,
            seed=seed,
        )


#: Field name → the exact value types it accepts: its default's type,
#: and an int as well for a float field (kept an int: converting it
#: would move the cell keys of every stored grid that passed one).  A
#: bool is never a number here, though Python counts it as an int.
_FIELD_TYPES = tuple(
    (
        field.name,
        (int, float) if type(field.default) is float else (type(field.default),),
    )
    for field in dataclasses.fields(SimulationConfig)
)
_TYPE_NAMES = {int: "an int", float: "a number", str: "a string", bool: "true or false"}
