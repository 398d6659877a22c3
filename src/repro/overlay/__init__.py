"""Unstructured P2P overlay substrate: graph, peers, messages, churn."""

from .blueprint import NetworkBlueprint
from .churn import ChurnProcess
from .graph import OverlayGraph
from .messages import BloomUpdate, ProviderEntry, Query, QueryResponse
from .network import P2PNetwork
from .peer import Peer

__all__ = [
    "OverlayGraph",
    "Peer",
    "ProviderEntry",
    "Query",
    "QueryResponse",
    "BloomUpdate",
    "P2PNetwork",
    "NetworkBlueprint",
    "ChurnProcess",
]
