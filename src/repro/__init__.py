"""repro — a reproduction of *Locaware: Index Caching in Unstructured
P2P-file Sharing Systems* (El Dick & Pacitti, DAMAP/EDBT 2009).

Quickstart::

    from repro import SimulationConfig, P2PNetwork, LocawareProtocol
    from repro.experiments import drive_until_settled
    from repro.workload import QueryWorkload

    config = SimulationConfig.small()
    network = P2PNetwork.build(config)
    protocol = LocawareProtocol(network)
    protocol.start()
    workload = QueryWorkload(network, protocol.issue_query, max_queries=200)
    workload.start()
    # Locaware's periodic Bloom pushes keep the event queue alive, so
    # run up to the event that finalises the last query instead of
    # draining the queue:
    drive_until_settled(network, protocol, workload, max_queries=200)
    protocol.stop()
    print(sum(o.success for o in protocol.outcomes), "queries satisfied")

Higher-level experiment drivers (the paper's figures) live in
:mod:`repro.experiments`; measurement helpers in :mod:`repro.analysis`.
"""

from .core import (
    BloomRouter,
    LocationAwareIndex,
    LocationAwareSelector,
    LocawareProtocol,
)
from .overlay import ChurnProcess, OverlayGraph, P2PNetwork, Peer
from .protocols import (
    DicasKeysProtocol,
    DicasProtocol,
    FloodingProtocol,
    QueryOutcome,
    SearchProtocol,
)
from .sim import RandomStreams, SimulationConfig, Simulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulationConfig",
    "Simulator",
    "RandomStreams",
    "P2PNetwork",
    "Peer",
    "OverlayGraph",
    "ChurnProcess",
    "SearchProtocol",
    "QueryOutcome",
    "FloodingProtocol",
    "DicasProtocol",
    "DicasKeysProtocol",
    "LocawareProtocol",
    "LocationAwareIndex",
    "BloomRouter",
    "LocationAwareSelector",
]
