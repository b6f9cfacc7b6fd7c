"""Canonical signed digit (CSD) encoding.

CSD is the canonical member of the signed-powers-of-two (SPT) family used by
the paper: digits in {-1, 0, +1}, no two adjacent digits nonzero, and the
minimum possible number of nonzero digits among all signed-digit encodings of
the value.  On average a ``W``-bit value has ``W/3`` nonzero CSD digits versus
``W/2`` binary ones, which is why multiplierless filter synthesis starts here.
"""

from __future__ import annotations

from .digits import SignedDigits

__all__ = ["encode_csd", "csd_nonzero_count", "is_csd"]


def encode_csd(value: int) -> SignedDigits:
    """Return the unique CSD encoding of ``value``.

    Uses the classical carry recoding: scanning LSB to MSB, a run of ones
    ``0111...1`` is rewritten as ``100...0N`` (``N`` = -1).  Works for negative
    values by encoding the magnitude and negating the digits, which preserves
    canonicality (CSD of ``-n`` is the digit-wise negation of CSD of ``n``).
    """
    if value == 0:
        return SignedDigits(())
    negative = value < 0
    n = abs(value)
    digits = []
    while n:
        if n & 1:
            # Remainder mod 4 decides whether this position becomes +1 or -1.
            d = 2 - (n & 3)  # n % 4 == 1 -> +1 ; n % 4 == 3 -> -1
            n -= d
        else:
            d = 0
        digits.append(d)
        n >>= 1
    if negative:
        digits = [-d for d in digits]
    return SignedDigits(tuple(digits))


def csd_nonzero_count(value: int) -> int:
    """Number of nonzero digits in the CSD encoding of ``value``.

    Reitwiesner's closed form: the nonzero digits of the CSD (non-adjacent)
    form of ``n >= 0`` sit exactly at the set bits of ``n XOR 3n``.  The CSD
    of ``-n`` negates the digits of ``n``'s, so the magnitude decides.  The
    tests hold this to ``encode_csd(value).nonzero_count``.
    """
    magnitude = abs(value)
    return bin(magnitude ^ (3 * magnitude)).count("1")


def is_csd(digits: SignedDigits) -> bool:
    """True if the digit string satisfies the CSD adjacency property."""
    return not digits.has_adjacent_nonzeros()
