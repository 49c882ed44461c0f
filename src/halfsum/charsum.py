"""Half-interval and full-interval quadratic character sums.

A(p) = sum of (a/p) for a = 1 .. (p-1)/2 is evaluated two independent ways:
a direct symbol-by-symbol sum, and an O(p) squares count that exploits the
fact that x^2 mod p for x = 1 .. (p-1)/2 hits every quadratic residue
exactly once. The squares also give the residue table, the residue sum
behind the class number, and the signs of the L(1, chi) partial sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arith import OddPrime, as_prime, legendre_euler
from .errors import ConsistencyError, ResourceLimitError

# Block length for vectorised passes over 1 .. n.
_BLOCK = 1 << 19

# x <= p/2 must keep x*x inside int64, so _squares_mod accepts p < 2^31.
_SIEVE_LIMIT = 1 << 31

# Full tables allocate p bytes; _qr_marks caps p to bound single-prime calls.
_TABLE_LIMIT = 1 << 28


@dataclass(frozen=True)
class HalfSumRecord:
    """Counts over the half interval [1, (p-1)/2] for one odd prime."""

    p: int
    qr_count: int
    nqr_count: int
    a_value: int
    method: str

    def __post_init__(self):
        half = (self.p - 1) // 2
        if self.qr_count + self.nqr_count != half:
            raise ConsistencyError(f"counts do not partition [1, {half}]")
        if self.a_value != self.qr_count - self.nqr_count:
            raise ConsistencyError("a_value does not match the counts")


def _blocks(stop: int) -> Iterator[np.ndarray]:
    """1 .. stop as int64 blocks of at most _BLOCK elements."""
    for start in range(1, stop + 1, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, stop + 1), dtype=np.int64)


def _squares_mod(pv: int) -> Iterator[np.ndarray]:
    """x^2 mod p for x = 1 .. (p-1)/2, as int64 blocks of at most _BLOCK."""
    if pv >= _SIEVE_LIMIT:
        raise ResourceLimitError(
            f"p = {pv} exceeds the sieve limit {_SIEVE_LIMIT}; "
            "squares would overflow the vectorised 64-bit path"
        )
    for x in _blocks((pv - 1) // 2):
        np.multiply(x, x, out=x)
        np.mod(x, pv, out=x)
        yield x


def half_sum_direct(p: int | OddPrime) -> HalfSumRecord:
    """A(p) by summing Legendre symbols for a = 1 .. (p-1)/2; O(p log p)."""
    op = as_prime(p)
    pv = op.value
    half = (pv - 1) // 2
    qr = 0
    for a in range(1, half + 1):
        if legendre_euler(a, op) == 1:
            qr += 1
    return HalfSumRecord(pv, qr, half - qr, 2 * qr - half, "direct")


def half_sum_sieve(p: int | OddPrime) -> HalfSumRecord:
    """A(p) by counting squares that land in the half interval; O(p).

    The squares x^2 mod p for x = 1 .. (p-1)/2 are pairwise distinct, so
    counting those <= (p-1)/2 equals counting marked cells of a bit array.
    """
    pv = as_prime(p).value
    half = (pv - 1) // 2
    qr = sum(int(np.count_nonzero(x <= half)) for x in _squares_mod(pv))
    return HalfSumRecord(pv, qr, half - qr, 2 * qr - half, "sieve")


def full_sum(p: int | OddPrime) -> int:
    """Sum of (a/p) over a = 1 .. p-1, computed by marking distinct squares.

    The result must be 0 for every odd prime; it is computed, not assumed.
    """
    pv = as_prime(p).value
    marks = _qr_marks(pv)
    m = int(np.count_nonzero(marks))
    return m - (pv - 1 - m)


def _qr_marks(pv: int) -> np.ndarray:
    """uint8 array of length p with 1 at every quadratic residue."""
    if pv > _TABLE_LIMIT:
        raise ResourceLimitError(f"p = {pv} exceeds the table limit {_TABLE_LIMIT}")
    marks = np.zeros(pv, dtype=np.uint8)
    for x in _squares_mod(pv):
        marks[x] = 1
    return marks


def qr_table(p: int | OddPrime) -> bytes:
    """Length-p lookup table: entry a is 1 iff a is a quadratic residue mod p.

    Entry 0 is 0. A bytes object indexes faster than a numpy array in
    per-element Python loops; vectorised code reads _qr_marks instead.
    """
    return _qr_marks(as_prime(p).value).tobytes()


def qr_value_sum(p: int | OddPrime) -> int:
    """Exact sum of all quadratic residues in [1, p-1].

    Accumulated in Python integers from int64 block sums; each block sum
    stays below 2^50 so nothing overflows.
    """
    return sum(int(x.sum()) for x in _squares_mod(as_prime(p).value))


def l_series_partial(p: int | OddPrime, terms: int) -> float:
    """Partial sum of L(1, chi) = sum of (n/p)/n for n = 1 .. terms.

    The symbols are read, periodically in n, from one length-p int8 table
    of signs; the series itself is summed in blocks of float64 terms.
    """
    pv = as_prime(p).value
    signs = _qr_marks(pv).view(np.int8)
    signs *= 2
    signs -= 1
    signs[0] = 0
    total = 0.0
    for n in _blocks(terms):
        total += float(np.sum(signs[n % pv] / n))
    return total
