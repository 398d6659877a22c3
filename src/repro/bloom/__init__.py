"""Bloom filter substrate: keyword masks, counting, deltas, parameter math.

Implements the structures of §4.2 of the paper: per-peer keyword
filters over cached filenames (one int vector each), deletion support
for cache evictions, and the changed-bit update protocol of footnote 1.
"""

from .bloom_filter import element_mask, elements_mask
from .counting import CountingBloomFilter
from .delta import BloomDelta, DeltaCodec
from .params import (
    expected_fill_fraction,
    false_positive_rate,
    optimal_hash_count,
    recommended_bits,
)

__all__ = [
    "element_mask",
    "elements_mask",
    "CountingBloomFilter",
    "BloomDelta",
    "DeltaCodec",
    "false_positive_rate",
    "optimal_hash_count",
    "recommended_bits",
    "expected_fill_fraction",
]
