"""Protocol messages exchanged over the overlay.

Three message families, straight from §3.1 and §4 of the paper:

- :class:`Query` — a keyword query flooded/forwarded with a TTL; it
  carries its traversal path so responses can walk the reverse path.
- :class:`QueryResponse` — filename + provider information travelling
  back along the reverse path.  In Locaware each response carries
  *several* :class:`ProviderEntry` items (provider address + locId) and
  the requestor's identity, which intermediate peers may cache.
- :class:`BloomUpdate` — a §4.2 delta update of a peer's keyword
  filter, pushed to direct neighbors.

Messages are immutable; forwarding creates the next hop's copy via
:meth:`Query.forwarded`.  The two per-hop messages (:class:`Query`,
:class:`QueryResponse`) are named tuples: a copy is one C-level
allocation, where a frozen dataclass pays one ``object.__setattr__``
per field.  Query ids are globally unique within a run and allocated by
the protocol engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..bloom.delta import BloomDelta

__all__ = ["ProviderEntry", "Query", "QueryResponse", "BloomUpdate"]


@dataclass(frozen=True)
class ProviderEntry:
    """One known provider of a file: its address and its locality id.

    ``peer_id`` stands in for the IP address of the paper's index
    entries; ``locid`` is the §4.1.1 landmark-ordering id (``None`` for
    protocols that are not location-aware).
    """

    peer_id: int
    locid: int | None = None


class Query(NamedTuple):
    """A keyword query in flight.

    Attributes
    ----------
    query_id:
        Unique id; also keys per-peer duplicate suppression.
    origin:
        The requesting peer (where responses must return).
    origin_locid:
        The requestor's locId, carried so that answering peers can pick
        location-matching providers (§4.1.2).
    keywords:
        The query keywords (1–3 keywords of the target filename, §5.1).
    target_file:
        Ground-truth id of the file the workload generator sampled.
        Used for metrics only — routing and matching never read it.
    ttl:
        Remaining hops (decremented on forward, §3.1).
    path:
        Peers traversed so far, origin first.  Responses walk it in
        reverse.
    """

    query_id: int
    origin: int
    origin_locid: int
    keywords: tuple[str, ...]
    target_file: int
    ttl: int
    path: tuple[int, ...]

    def forwarded(self, via: int) -> Query:
        """The copy of this query that ``via`` forwards onward."""
        query_id, origin, origin_locid, keywords, target_file, ttl, path = self
        return Query(
            query_id, origin, origin_locid, keywords, target_file,
            ttl - 1, path + (via,),
        )

    @property
    def last_hop(self) -> int:
        """The peer that sent this copy (the origin for the first hop)."""
        return self.path[-1]


class QueryResponse(NamedTuple):
    """A query response walking the reverse path (§3.1).

    Attributes
    ----------
    query_id / origin / origin_locid / keywords:
        Copied from the query (the requestor's identity and locality
        travel with the response so that caching peers can register the
        requestor as a future provider, §4.1.2).
    file_id / filename:
        The satisfying file.
    providers:
        Known providers.  Single entry for Flooding/Dicas; up to
        ``max_providers_per_file`` entries for Locaware.
    responder:
        The peer that generated the response (file-store or index hit).
    reverse_path:
        Peers still to visit, ending with the origin.
    """

    query_id: int
    origin: int
    origin_locid: int
    keywords: tuple[str, ...]
    file_id: int
    filename: str
    providers: tuple[ProviderEntry, ...]
    responder: int
    reverse_path: tuple[int, ...]

    def next_hop(self) -> int | None:
        """The next peer on the reverse path, or ``None`` if delivered."""
        return self.reverse_path[0] if self.reverse_path else None

    def advanced(self) -> QueryResponse:
        """The copy of this response after one reverse-path hop."""
        *carried, reverse_path = self
        return QueryResponse(*carried, reverse_path[1:])


@dataclass(frozen=True)
class BloomUpdate:
    """A §4.2 Bloom-filter update pushed to a direct neighbor."""

    sender: int
    delta: BloomDelta
