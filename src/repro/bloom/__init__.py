"""Bloom filter substrate: plain, counting, deltas, parameter math.

Implements the structures of §4.2 of the paper: per-peer keyword
filters over cached filenames, deletion support for cache evictions,
and the changed-bit update protocol of footnote 1.
"""

from .bloom_filter import BloomFilter, element_mask, element_positions
from .counting import CountingBloomFilter
from .delta import BloomDelta, DeltaCodec, apply_delta, diff
from .params import (
    expected_fill_fraction,
    false_positive_rate,
    optimal_hash_count,
    recommended_bits,
)

__all__ = [
    "BloomFilter",
    "element_mask",
    "element_positions",
    "CountingBloomFilter",
    "BloomDelta",
    "DeltaCodec",
    "diff",
    "apply_delta",
    "false_positive_rate",
    "optimal_hash_count",
    "recommended_bits",
    "expected_fill_fraction",
]
