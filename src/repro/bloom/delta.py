"""Changed-bit delta encoding for Bloom filter updates.

§4.2 (footnote 1) of the paper: when a filename is added to or removed
from the response index, only a few bits of the 1200-bit vector change,
so a peer transmits just the *locations* of the changed bits — "the
number of changed bits ... is limited by 12 at most and the location of
each bit by 11 bits.  Thus, the information to be sent is limited by
I = 12 * 11 bits = 0.132 Kb".

:class:`DeltaCodec` encodes one push — the vector last pushed and the
current one, both ints — as a :class:`BloomDelta` and measures its
encoded size in bits (used by ablation A6 to verify the paper's overhead
bound).  When a delta would be larger than the full vector — e.g. after
mass evictions — :meth:`DeltaCodec.encode` falls back to shipping the
full vector, exactly what a real implementation would do.

A delta holds the changed bits as one XOR mask, not as a position list:
it is computed once per push, and each receiver applies it to its copy
in one operation (:meth:`BloomDelta.apply`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BloomDelta", "DeltaCodec"]


@dataclass(frozen=True)
class BloomDelta:
    """One encoded update message, shared by every receiver of a push.

    Exactly one of two ints is set, bit ``p`` being filter position
    ``p``: ``xor_mask``, the bits that changed (delta mode), or
    ``vector``, the new vector itself (full fallback).
    """

    xor_mask: int | None
    vector: int | None
    encoded_bits: int

    @property
    def is_full(self) -> bool:
        """Whether this update carries the whole vector."""
        return self.vector is not None

    def apply(self, vector: int) -> int:
        """The vector a copy holding ``vector`` holds after this update:
        one XOR, or the shipped vector."""
        if self.vector is not None:
            return self.vector
        return vector ^ self.xor_mask


class DeltaCodec:
    """Encodes filter updates as changed-bit masks with a full fallback."""

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        self._bits = bits
        # Position width: 11 bits for the paper's 1200-bit vector.
        self._position_bits = max(1, math.ceil(math.log2(bits)))

    @property
    def position_bits(self) -> int:
        """Bits needed to address one position of the vector."""
        return self._position_bits

    def encode(self, old: int, new: int) -> BloomDelta:
        """Encode the update from vector ``old`` to vector ``new``.

        Uses the smaller of (changed-position list, full vector); the
        list's size is its length in positions of ``position_bits``.
        """
        changed = old ^ new
        delta_bits = changed.bit_count() * self._position_bits
        if delta_bits <= self._bits:
            return BloomDelta(xor_mask=changed, vector=None, encoded_bits=delta_bits)
        return BloomDelta(xor_mask=None, vector=new, encoded_bits=self._bits)
