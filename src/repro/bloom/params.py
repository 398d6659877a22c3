"""Bloom filter parameter mathematics.

Standard results (Bloom 1970; Fan et al. 1998 — both cited by the
paper): with ``m`` bits, ``k`` hash functions, and ``n`` inserted
elements, the expected false-positive probability is
``(1 - e^(-k·n/m))^k``, minimised at ``k = (m/n)·ln 2``.

The paper's sizing argument (§5.1): an "enlarged response index with
50 filenames of 3 keywords" holds up to 150 keywords, and 1200 bits
gives m/n = 8.  The smallest filter reaching a 2 % rate at the optimal
k is ``m = -n·ln 0.02 / (ln 2)²`` ≈ 1221 bits, so 1200 bits is the
paper's ~2 % filter; the simulator's default 4 hashes give 2.4 %.
"""

from __future__ import annotations

import math

__all__ = ["false_positive_rate"]


def false_positive_rate(bits: int, hashes: int, inserted: int) -> float:
    """Expected false-positive probability of a Bloom filter.

    >>> round(false_positive_rate(1200, 4, 150), 3)
    0.024
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    if hashes <= 0:
        raise ValueError(f"hashes must be positive, got {hashes}")
    if inserted < 0:
        raise ValueError(f"inserted must be non-negative, got {inserted}")
    if inserted == 0:
        return 0.0
    return (1.0 - math.exp(-hashes * inserted / bits)) ** hashes

