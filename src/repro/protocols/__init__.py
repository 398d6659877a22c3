"""Search protocols: the shared lifecycle plus the paper's baselines.

The Locaware protocol itself lives in :mod:`repro.core`; this package
holds everything it is compared against (§5.1): blind flooding, Dicas,
and Dicas-Keys, together with the lifecycle machinery all four share
and the response index Dicas, Dicas-Keys and Locaware keep.
"""

from .base import QueryContext, QueryOutcome, SearchProtocol
from .dicas import DicasProtocol
from .dicas_keys import DicasKeysProtocol
from .flooding import FloodingProtocol
from .groups import file_group, keyword_groups, query_group_guess, stable_hash
from .index_cache import IndexUpdate, LocationAwareIndex

__all__ = [
    "SearchProtocol",
    "QueryContext",
    "QueryOutcome",
    "FloodingProtocol",
    "DicasProtocol",
    "DicasKeysProtocol",
    "LocationAwareIndex",
    "IndexUpdate",
    "stable_hash",
    "file_group",
    "query_group_guess",
    "keyword_groups",
]
