"""Zipf popularity sampling over file ranks.

§5.1: "Queries are generated according to Zipf distribution".  Analyses
of Gnutella traces (the paper's refs [11, 15]) found query popularity
heavily skewed: a few popular files attract most queries — which is
exactly why caching indexes of *popular* responses pays off.

:class:`ZipfSampler` draws file ids with ``P(rank k) ∝ 1 / k^s`` using
inverse-transform sampling on the precomputed CDF (O(log n) per draw).
Rank 1 is the most popular file.  The rank→file-id assignment is a
seeded permutation so that popularity is independent of file-id order
(file ids also index the catalog, which was generated independently).
"""

from __future__ import annotations

import bisect
import random
from functools import lru_cache

__all__ = ["ZipfSampler"]


@lru_cache(maxsize=4, typed=True)
def _cdf(num_items: int, exponent: float) -> tuple[float, ...]:
    """The rank CDF, a pure function of ``(num_items, exponent)``.

    Keyed by type too, so an ``int`` exponent keeps its own arithmetic.
    """
    # rank r (1-based) gets weight 1 / r^s.
    weights = [1.0 / ((r + 1) ** exponent) for r in range(num_items)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return tuple(cdf)


class ZipfSampler:
    """Draws items Zipf-distributed by rank.

    Parameters
    ----------
    num_items:
        Universe size (the paper's 3000 files).
    exponent:
        Skew ``s >= 0``; ``s = 0`` degenerates to uniform, ``s = 1`` is
        the classic Zipf law observed in Gnutella workloads.
    rng:
        Source of randomness for both the rank permutation and draws.
    """

    def __init__(self, num_items: int, exponent: float, rng: random.Random) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self._num_items = num_items
        self._exponent = exponent
        self._rng = rng
        self._cdf = _cdf(num_items, exponent)
        # Map ranks to item ids with a random permutation: popularity
        # must not correlate with catalog generation order.
        self._rank_to_item = list(range(num_items))
        rng.shuffle(self._rank_to_item)

    @property
    def num_items(self) -> int:
        """Universe size."""
        return self._num_items

    @property
    def exponent(self) -> float:
        """The Zipf skew s."""
        return self._exponent

    def sample(self) -> int:
        """Draw one item id."""
        u = self._rng.random()
        rank = bisect.bisect_left(self._cdf, u)
        if rank >= self._num_items:  # guard against u == 1.0 edge
            rank = self._num_items - 1
        return self._rank_to_item[rank]

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` item ids."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.sample() for _ in range(count)]

    def rank_of(self, item: int) -> int:
        """The popularity rank (1 = most popular) of ``item``."""
        return self._rank_to_item.index(item) + 1

    def item_at_rank(self, rank: int) -> int:
        """The item id occupying 1-based ``rank``."""
        if not (1 <= rank <= self._num_items):
            raise ValueError(f"rank must be in [1, {self._num_items}], got {rank}")
        return self._rank_to_item[rank - 1]

    def probability_of_rank(self, rank: int) -> float:
        """Exact draw probability of the item at 1-based ``rank``."""
        if not (1 <= rank <= self._num_items):
            raise ValueError(f"rank must be in [1, {self._num_items}], got {rank}")
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo

    def reshuffle(self, rng: random.Random | None = None) -> None:
        """Redraw the rank → item assignment (a popularity shift).

        The skew stays identical; *which* items are popular changes.
        Used by the shifting-popularity workload to model evolving
        interest in a file-sharing community.
        """
        (rng if rng is not None else self._rng).shuffle(self._rank_to_item)
