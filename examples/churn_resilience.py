#!/usr/bin/env python3
"""Index staleness under churn: Locaware vs Dicas (§3.1, §4.1.2).

"Given the high dynamicity of peers, cached objects should be kept for
a small amount of time to avoid sending stale responses" — the paper's
motivation for recency-based replacement and multi-provider entries.

Part 1 shows the *mechanism* deterministically: a query answered from a
cached index whose first provider has just left the network.  Dicas'
single-pointer index dooms the query; Locaware's multi-provider entry
falls back to a live provider.

Part 2 shows the *statistics*: with churn enabled, end-to-end success
degrades more for Dicas than for Locaware in a regime where searches
rely on cached indexes (rare replicas: 600 files over 200 peers).

Run:  python examples/churn_resilience.py
"""

import time

from repro import DicasProtocol, LocawareProtocol, P2PNetwork, SimulationConfig
from repro.analysis import format_table
from repro.experiments import run_protocol
from repro.overlay import ProviderEntry


def mechanism_demo() -> None:
    """One query, one stale pointer, two protocols."""
    print("Part 1 — the mechanism (single query, stale cached provider)\n")
    results = []
    for cls in (DicasProtocol, LocawareProtocol):
        config = SimulationConfig.small(seed=5)
        network = P2PNetwork.build(config)
        protocol = cls(network)
        for peer in network.peers:
            peer.store.clear()
        file_id = 7
        filename = network.catalog.filename(file_id)
        keywords = network.catalog.keywords(file_id)
        departed, alive = 30, 40
        network.peer(alive).store.add(file_id)

        # Both indexes heard of `alive` (an earlier requestor), then of
        # `departed`; Dicas's keeps only the newest provider (p_f = 1),
        # Locaware's keeps both.
        protocol.index_of(network.peer(0)).put(
            filename,
            [
                ProviderEntry(alive, network.peer(alive).locid),
                ProviderEntry(departed, network.peer(departed).locid),
            ],
        )
        network.peer(departed).alive = False  # churn strikes

        protocol.issue_query(0, file_id, keywords)
        network.sim.run(until=network.sim.now + 60.0)
        outcome = protocol.outcomes[0]
        results.append([cls.name, "yes" if outcome.success else "no",
                        outcome.provider if outcome.provider is not None else "-"])
    print(format_table(["protocol", "query satisfied", "provider used"], results))
    print()


def statistics_demo() -> None:
    """End-to-end success under increasing churn."""
    print("Part 2 — end-to-end statistics (200 peers, 600 rare files)\n")
    base = SimulationConfig.small(seed=31).replace(
        num_peers=200,
        num_files=600,
        keyword_pool_size=2700,
        query_rate_per_peer=0.02,
        index_capacity=30,
    )
    scenarios = [
        ("no churn", base.replace(churn_enabled=False)),
        ("moderate (~3 min sessions)", base.replace(
            churn_enabled=True, mean_session_s=200.0, mean_downtime_s=50.0)),
    ]
    rows = []
    for label, config in scenarios:
        started = time.time()
        dicas = run_protocol(config, "dicas", max_queries=600, bucket_width=150)
        locaware = run_protocol(config, "locaware", max_queries=600, bucket_width=150)
        rows.append([
            label,
            dicas.summary.success_rate,
            locaware.summary.success_rate,
            locaware.summary.success_rate - dicas.summary.success_rate,
        ])
        print(f"  ran '{label}' in {time.time() - started:.1f}s", flush=True)
    print()
    print(format_table(
        ["churn level", "dicas success", "locaware success", "locaware edge"],
        rows,
        title="Success rate under churn (600 queries/protocol)",
    ))
    print(
        "\nChurn widens the gap: Locaware's multi-provider, recency-refreshed\n"
        "entries offer live alternatives when a cached pointer goes stale,\n"
        "while a Dicas index dies with its single provider."
    )


def main() -> None:
    mechanism_demo()
    statistics_demo()


if __name__ == "__main__":
    main()
