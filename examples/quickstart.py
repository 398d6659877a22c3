#!/usr/bin/env python3
"""Quickstart: build a small P2P file-sharing system and run Locaware.

Demonstrates the core public API in ~40 lines:

1. configure a system (``SimulationConfig``);
2. assemble it (``P2PNetwork.build``);
3. attach the Locaware protocol and start its background processes;
4. drive a Zipf keyword-query workload through it;
5. read the three paper metrics back.

Run:  python examples/quickstart.py
"""

from repro import LocawareProtocol, P2PNetwork, SimulationConfig
from repro.analysis import summarize_outcomes
from repro.experiments import drive_until_settled
from repro.workload import QueryWorkload


def main() -> None:
    # A miniature version of the paper's setup (§5.1): the full-scale
    # configuration is SimulationConfig.paper_defaults().
    config = SimulationConfig.small(seed=42)
    print(f"building {config.num_peers} peers, {config.num_files} files...")
    network = P2PNetwork.build(config)

    protocol = LocawareProtocol(network)
    protocol.start()  # arms the periodic Bloom-filter pushes (§4.2)

    workload = QueryWorkload(network, protocol.issue_query, max_queries=300)
    workload.start()

    # Run up to the event that finalises the last of the 300 queries
    # (Locaware's periodic pushes keep the event queue alive, so
    # draining it would never end).
    drive_until_settled(network, protocol, workload, max_queries=300)
    protocol.stop()

    summary = summarize_outcomes(protocol.outcomes)
    print(f"\nvirtual time:        {network.sim.now:,.0f} s")
    print(f"queries issued:      {summary.queries}")
    print(f"success rate:        {summary.success_rate:.1%}")
    print(f"messages per query:  {summary.mean_messages:.1f}")
    print(f"download distance:   {summary.mean_download_distance_ms:.0f} ms RTT")
    print(f"locally satisfied:   {protocol.local_satisfactions} (never hit the network)")

    # Peek inside one peer's location-aware response index (§4.1).
    populated = [
        p for p in network.peers if protocol.index_of(p).size > 0
    ]
    if populated:
        peer = populated[0]
        index = protocol.index_of(peer)
        print(f"\npeer {peer.peer_id} (locId {peer.locid}) caches "
              f"{index.size} filename(s):")
        for filename in index.filenames()[-3:]:
            providers = index.providers_of(filename)
            entries = ", ".join(f"(peer {p.peer_id}, locId {p.locid})" for p in providers)
            print(f"  {filename}: {entries}")


if __name__ == "__main__":
    main()
