"""The six benchmark workloads as grid specs.

Every workload is a stream of *batches*.  A batch is one
``GridSpec`` — the only thing the program under test receives — run the
way ``repro grid run --reuse-builds --store DIR`` runs it.  Batch ``i``
of a run started with ``--seed s`` uses the master seeds
``s + i*k … s + i*k + k-1`` (``k = seeds_per_batch``), so the same seed
gives the same inputs and a longer run only appends batches.

All workloads use the router latency model with the ``small_config``
ratios (3 files per peer, 9x keyword pool) and
``query_rate_per_peer=0.02``.  Why each exists is recorded next to its
name in ``BENCHMARK.json`` and, at length, in ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

DEFAULT_SEED = 11

ALL_PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware")
CHURN_STORM = (
    "churn-storm:calm_session_s=300,calm_downtime_s=60,"
    "storm_session_s=20,storm_downtime_s=20"
)
SMOKE_PEERS = 60


@dataclass(frozen=True)
class Workload:
    """One named workload: the grid a batch runs and how batches repeat."""

    name: str
    protocols: tuple[str, ...]
    scenarios: tuple[str, ...]
    peers: int
    max_queries: int
    seeds_per_batch: int
    #: Batches whose cells feed the exact counts, the golden check and
    #: the traced pass — fixed, so those numbers repeat run to run
    #: however many batches the time budget allows after them.
    prefix_batches: int
    bucket_width: int | None = None
    #: Warm workload: set-up cold-runs one batch into the store, and
    #: every timed batch re-runs that same spec on a freshly opened
    #: store (executed=0, everything cached).
    warm: bool = False

    def spec(self, first_seed: int) -> Any:
        """The ``GridSpec`` of the batch whose first master seed is given."""
        from repro.experiments import GridSpec, small_config

        base = small_config(seed=7).replace(
            num_peers=self.peers,
            num_files=3 * self.peers,
            keyword_pool_size=9 * self.peers,
            latency_model="router",
            query_rate_per_peer=0.02,
        )
        return GridSpec(
            base_config=base,
            protocols=self.protocols,
            scenarios=self.scenarios,
            seeds=tuple(range(first_seed, first_seed + self.seeds_per_batch)),
            max_queries=self.max_queries,
            bucket_width=self.bucket_width,
        )

    def batch_seed(self, seed: int, batch: int) -> int:
        """First master seed of batch ``batch`` (warm batches all share one)."""
        return seed if self.warm else seed + batch * self.seeds_per_batch

    def at_scale(self, scale: str) -> Workload:
        """This workload at ``full`` or ``smoke`` scale.

        Smoke keeps every axis and shrinks the sizes: 60 peers, queries
        in proportion, 2 seeds, 5 warm passes.
        """
        if scale == "full":
            return self
        if scale != "smoke":
            raise ValueError(f"unknown scale {scale!r}; known: full, smoke")
        single = self.seeds_per_batch == 1
        return dataclasses.replace(
            self,
            peers=SMOKE_PEERS,
            max_queries=max(20, self.max_queries * SMOKE_PEERS // self.peers),
            seeds_per_batch=1 if single else 2,
            prefix_batches=5 if self.warm else 2 if single else 1,
        )


_GRID = dict(
    protocols=ALL_PROTOCOLS,
    scenarios=("baseline", "flash-crowd"),
    peers=60,
    max_queries=40,
    bucket_width=20,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dense_600", ("locaware",), ("baseline",), 600, 3000, 1, 1),
        Workload("idle_6k", ("locaware",), ("baseline",), 6000, 600, 1, 1),
        Workload("flood_600", ("flooding",), ("baseline",), 600, 300, 1, 1),
        Workload("churn_600", ("locaware",), (CHURN_STORM,), 600, 1500, 1, 1),
        # More seeds per batch than the blueprint cache holds (8), so the
        # serial store path's build-per-cell behaviour stays visible.
        Workload("grid_small", seeds_per_batch=10, prefix_batches=1, **_GRID),
        Workload("grid_resume", seeds_per_batch=5, prefix_batches=20, warm=True, **_GRID),
    )
}
