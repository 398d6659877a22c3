"""Locaware — the paper's primary contribution.

- :class:`BloomRouter` — keyword Bloom filters with delta propagation
  and BF-first query routing (§4.2);
- :class:`LocationAwareSelector` — locId-match / RTT-probe provider
  selection (§4.1.2, §5.1);
- :class:`LocawareProtocol` — the assembled protocol: Dicas's response
  index and caching path with p_f providers per filename (§4.1).
"""

from .bloom_router import BloomRouter, PeerBloomState
from .locaware import LocawareProtocol
from .provider_selection import LocationAwareSelector

__all__ = [
    "BloomRouter",
    "PeerBloomState",
    "LocationAwareSelector",
    "LocawareProtocol",
]
