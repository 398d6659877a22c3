#!/usr/bin/env python3
"""Record a query trace, save it, and replay it against two protocols.

The paper's comparison is only meaningful because every protocol sees
the *same* queries.  This example makes that explicit: one recorded
trace (our stand-in for the Gnutella traces of refs [11, 15]) drives
both Dicas and Locaware, and the run is bit-for-bit reproducible.

Run:  python examples/trace_replay.py
"""

import io
import time

from repro import DicasProtocol, LocawareProtocol, P2PNetwork, SimulationConfig
from repro.analysis import format_table, summarize_outcomes
from repro.experiments import drive_until_settled
from repro.workload import QueryWorkload, TraceReplayer, parse_trace, serialize_trace


def record_trace(config, count):
    """Generate a workload once and capture it as a trace."""
    network = P2PNetwork.build(config)
    workload = QueryWorkload(network, lambda *a: None, max_queries=count)
    workload.start()
    network.sim.run()
    buffer = io.StringIO()
    serialize_trace(workload.history, buffer)
    return buffer.getvalue()


def replay(config, trace_text, protocol_cls):
    """Drive one protocol with the recorded trace."""
    events = parse_trace(io.StringIO(trace_text))
    network = P2PNetwork.build(config)
    protocol = protocol_cls(network)
    protocol.start()
    replayer = TraceReplayer(network, protocol.issue_query, events)
    replayer.start()
    drive_until_settled(network, protocol, replayer, max_queries=len(events))
    stop = getattr(protocol, "stop", None)
    if callable(stop):
        stop()
    return replayer, protocol


def main() -> None:
    config = SimulationConfig.small(seed=77).replace(query_rate_per_peer=0.02)

    print("recording a 300-query trace...")
    trace_text = record_trace(config, 300)
    lines = trace_text.strip().splitlines()
    print(f"trace: {len(lines)} events, e.g.\n  " + "\n  ".join(lines[:3]) + "\n")

    rows = []
    for cls in (DicasProtocol, LocawareProtocol):
        started = time.time()
        replayer, protocol = replay(config, trace_text, cls)
        summary = summarize_outcomes(protocol.outcomes)
        rows.append([
            cls.name,
            replayer.replayed,
            summary.queries,
            summary.success_rate,
            summary.mean_messages,
        ])
        print(f"  replayed against {cls.name} in {time.time() - started:.1f}s")

    print()
    print(format_table(
        ["protocol", "replayed", "network queries", "success", "msgs/query"],
        rows,
        title="Identical trace, two protocols",
    ))

    # Determinism check: replaying the same trace twice gives identical
    # outcomes.
    _, first = replay(config, trace_text, LocawareProtocol)
    _, second = replay(config, trace_text, LocawareProtocol)
    identical = [o.success for o in first.outcomes] == [
        o.success for o in second.outcomes
    ]
    print(f"\nreplay determinism: {'OK' if identical else 'BROKEN'}")


if __name__ == "__main__":
    main()
