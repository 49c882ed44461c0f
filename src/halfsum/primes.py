"""Prime generation by segmented sieve, with optional residue-class filter."""

from __future__ import annotations

from math import isqrt
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, ResourceLimitError

# Segment length in integers; keeps each flag array cache-resident.
_SEGMENT = 1 << 18

# Bounds stay below 2^48, so the base sieve up to sqrt(hi) holds at most
# 2^24 flags (~66 MB peak with its prime list).
_SIEVE_LIMIT = 1 << 48


def _base_primes(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve; limit is O(sqrt(hi))."""
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(v) for v in np.flatnonzero(flags)]


def check_bound(lo: int, hi: int) -> None:
    """Raise unless the prime sieve can take the range [lo, hi].

    Both bounds must be nonnegative (DomainError), and the upper bound of a
    range that is not inverted must stay below _SIEVE_LIMIT
    (ResourceLimitError).
    """
    if lo < 0 or hi < 0:
        raise DomainError("bounds must be nonnegative")
    if lo <= hi and hi >= _SIEVE_LIMIT:
        raise ResourceLimitError(f"range bound {hi} exceeds the prime-sieve limit {_SIEVE_LIMIT}")


def iter_primes(
    lo: int,
    hi: int,
    residue: Optional[int] = None,
    modulus: Optional[int] = None,
) -> Iterator[int]:
    """Yield primes in [lo, hi] ascending, filtered to p % modulus == residue.

    An inverted range yields nothing. The filter is applied after sieving,
    so no qualifying prime is skipped. hi must stay below _SIEVE_LIMIT.
    """
    if (residue is None) != (modulus is None):
        raise DomainError("residue and modulus must be given together")
    if modulus is not None:
        if modulus <= 0:
            raise DomainError(f"modulus must be positive, got {modulus}")
        residue %= modulus
    check_bound(lo, hi)
    lo = max(lo, 2)
    if lo > hi:
        return
    base = _base_primes(isqrt(hi))
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT - 1, hi)
        flags = np.ones(stop - start + 1, dtype=bool)
        for q in base:
            if q * q > stop:
                break
            first = max(q * q, ((start + q - 1) // q) * q)
            flags[first - start :: q] = False
        found = np.flatnonzero(flags) + start
        if modulus is not None:
            found = found[found % modulus == residue]
        for v in found.tolist():
            yield v


def primes_in_range(
    lo: int,
    hi: int,
    residue: Optional[int] = None,
    modulus: Optional[int] = None,
) -> list[int]:
    """Exactly the primes in [lo, hi] matching the filter, ascending."""
    return list(iter_primes(lo, hi, residue, modulus))
