"""Dicas-Keys — the keyword-search strategy of Dicas (§2, §5.1).

"Some proposed strategy consists in caching indexes based on hashing
query keywords instead of the whole filename, which causes a large
amount of duplicated cached indexes."

Concretely:

- *caching*: a reverse-path peer caches a passing response when its
  ``Gid`` matches ``hash(kw) mod M`` for **any** keyword of the query
  that produced it — so one response may be cached by up to X groups
  (duplication → cache pollution, the §5.2 explanation for its
  33%-lower hit ratio);
- *routing*: a query follows the group of its *designated* keyword
  (the first in canonical order), keeping per-hop fan-out comparable
  to Dicas (the paper's Fig 3 shows all caching protocols at similar
  traffic).  Because cache placement spreads over every keyword group
  of *past* queries while lookup follows the *current* query's
  designated keyword, placements and lookups mismatch — the second
  §5.2 reason Dicas-Keys trails on hit ratio.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..overlay.messages import Query, QueryResponse
from ..overlay.peer import Peer
from .dicas import DicasProtocol
from .groups import keyword_groups, stable_hash

__all__ = ["DicasKeysProtocol"]


class DicasKeysProtocol(DicasProtocol):
    """Dicas with per-keyword group hashing."""

    name = "dicas-keys"

    def _cache_groups(self, response: QueryResponse) -> set[int]:
        """Every group of a keyword of the query that produced ``response``."""
        return keyword_groups(response.keywords, self.config.group_count)

    def _routing_group(self, keywords: Sequence[str]) -> int:
        """The designated keyword's group (first in canonical order)."""
        designated = min(keywords)
        return stable_hash(designated) % self.config.group_count

    def routing_keys(self, keywords: tuple[str, ...]) -> tuple[int, int]:
        """The designated keyword's group, carried by the query."""
        return self._routing_group(keywords), 0

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """Neighbors matching the designated keyword's group; else fallback."""
        # The same body as Dicas's, defined here as well:
        # ``bench/layertrace.py`` wraps the method by name in each
        # class's own namespace and counts one span per call.
        return self._route_to_group(peer, query.path[-1], query.group)
