"""Half-interval and full-interval quadratic character sums.

A(p) = sum of (a/p) for a = 1 .. (p-1)/2 is evaluated two independent ways:
a direct symbol-by-symbol sum, and an O(p) squares count that exploits the
fact that x^2 mod p for x = 1 .. (p-1)/2 hits every quadratic residue
exactly once. The squares also give the residue table, the residue sum
behind the class number, and the residues of the L(1, chi) partial sum.

Every squares pass runs one float64 kernel, _quotients, on blocks
x = x0 + i, 0 <= i < 2^15, where x^2 = v = c0 + (c1 + i)*i (mod p) with
c0 = x0^2 mod p and c1 = 2*x0 mod p, so v < 2^46 + 2^32 for p < 2^31.
It yields u = (c1 + i)*(i*r) + c0*r, with the column i*r computed once
per prime and r = 1/p rounded up by four ulps: r*p - 1 lies in
(3.5, 9] * 2^-53 (Lemire, Kaser and Kurz, "Faster remainder by direct
computation", 2019). Each term of u is rounded at most three times, by
a relative 2^-53 at most, so 0 <= p*u - v < 12.1 * 2^-53 * v < 1/8,
with equality only at v = 0. Hence floor(u) = floor(v/p), and A(p)
counts frac(u) < 1/2, for odd p exactly x^2 mod p <= (p-1)/2; the
residue sum is the closed-form sum of v less p times the sum of floor(u);
the residue marks and the L series truncate p*frac(u), which rounding
cannot take below x^2 mod p. The half-interval count and the residue sum
share the blocks of one pass, and the residue marks, once built, also
give the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .arith import OddPrime, as_prime, legendre_euler
from .errors import ConsistencyError, ResourceLimitError

# Block length of the squares kernel: i < 2^15 keeps v below 2^46 + 2^32.
_BLOCK = 1 << 15


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of n elements on a 64-byte boundary.

    malloc only promises 16 bytes, and the kernel's vector loops run ~20%
    slower on buffers that are not 32-byte aligned, so without this the
    speed of a whole process would hang on where its heap happened to put
    them.
    """
    buf = np.empty(n + 8)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip : skip + n]


_I = _aligned_empty(_BLOCK)
_I[:] = np.arange(_BLOCK)

# c0 and c1 are below p, so the kernel's error bound holds for p < 2^31.
_SIEVE_LIMIT = 1 << 31

# The residue table allocates p bytes; _qr_marks caps p to bound single-prime calls.
_TABLE_LIMIT = 1 << 28

# Longest L(1, chi) partial sum, an input bound as the sum is O(p) at any length: above
# --l-check's 100p default for p <= 343597383, below 2^53, so each K_r is exact in float64.
_L_TERMS_LIMIT = 1 << 35


@dataclass(frozen=True)
class HalfSumRecord:
    """Counts over the half interval [1, (p-1)/2] for one odd prime.

    residue_sum, the sum of all quadratic residues in [1, p-1], is filled
    by the sieve, whose squares pass meets every residue once; the direct
    method leaves it None.
    """

    p: int
    qr_count: int
    nqr_count: int
    a_value: int
    method: str
    residue_sum: Optional[int] = None

    def __post_init__(self):
        half = (self.p - 1) // 2
        if self.qr_count + self.nqr_count != half:
            raise ConsistencyError(f"counts do not partition [1, {half}]")
        if self.a_value != self.qr_count - self.nqr_count:
            raise ConsistencyError("a_value does not match the counts")


def _quotients(pv: int, start: int = 1, stop: Optional[int] = None) -> Iterator[tuple]:
    """(c0, c1, u, w) per block of at most _BLOCK of x = start .. stop - 1,
    by default the half interval: u holds the quotients of the module
    docstring, w is scratch of u's length, and the next block reuses both."""
    if pv >= _SIEVE_LIMIT:
        raise ResourceLimitError(
            f"p = {pv} exceeds the sieve limit {_SIEVE_LIMIT}; "
            "the exact float64 squares kernel needs p < 2^31"
        )
    stop = stop or (pv + 1) // 2
    r = 1.0 / pv
    for _ in range(4):
        r = math.nextafter(r, 1.0)
    n = min(stop - start, _BLOCK)
    # One allocation for three rows; rows of a multiple of 8 floats stay aligned.
    ir, u, w = _aligned_empty(3 * ((n + 7) & -8)).reshape(3, -1)[:, :n]
    i = _I[:n]
    np.multiply(i, r, out=ir)
    for x0 in range(start, stop, _BLOCK):
        if stop - x0 < n:  # the last block is shorter
            n = stop - x0
            i, ir, u, w = i[:n], ir[:n], u[:n], w[:n]
        c0, c1 = x0 * x0 % pv, 2 * x0 % pv
        np.add(i, float(c1), out=u)
        u *= ir
        u += c0 * r
        yield c0, c1, u, w


def _residue_sum(pv: int, c0: int, c1: int, n: int, floor_sum: int) -> int:
    """Sum of x^2 mod p over a block of n: sum(v) - p*floor_sum, floor_sum = sum(floor(u))."""
    v_sum = n * c0 + c1 * n * (n - 1) // 2 + (n - 1) * n * (2 * n - 1) // 6
    return v_sum - pv * floor_sum


def half_sum_direct(p: int | OddPrime) -> HalfSumRecord:
    """A(p) by summing Legendre symbols for a = 1 .. (p-1)/2; O(p log p)."""
    op = as_prime(p)
    pv = op.value
    if pv >= _SIEVE_LIMIT:
        raise ResourceLimitError(f"p = {pv} exceeds the sieve limit {_SIEVE_LIMIT}")
    half = (pv - 1) // 2
    qr = 0
    for a in range(1, half + 1):
        if legendre_euler(a, op) == 1:
            qr += 1
    return HalfSumRecord(pv, qr, half - qr, 2 * qr - half, "direct")


def half_sum_sieve(p: int | OddPrime, *, sum_residues: bool = False) -> HalfSumRecord:
    """A(p) by counting squares that land in the half interval; O(p).

    The squares x^2 mod p for x = 1 .. (p-1)/2 are pairwise distinct, so
    counting those <= (p-1)/2, where 0 < frac(u) < 1/2 and so u > rint(u),
    equals counting marked cells of a bit array. With sum_residues the same
    pass also totals the squares, which are all the residues, into residue_sum.
    As 0 < frac(u) != 1/2 here, floor(u) is rint(u) - 1 where u < rint(u), else rint(u).
    """
    pv = as_prime(p).value
    half = (pv - 1) // 2
    qr, total = 0, 0 if sum_residues else None
    for c0, c1, u, w in _quotients(pv):
        count = int(np.count_nonzero(u > np.rint(u, out=w)))
        qr += count
        if sum_residues:
            total += _residue_sum(pv, c0, c1, len(u), int(w.sum()) - len(u) + count)
    return HalfSumRecord(pv, qr, half - qr, 2 * qr - half, "sieve", total)


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
    for _, _, u, w in _quotients(pv):
        np.subtract(u, np.floor(u, out=w), out=w)
        w *= pv
        marks[w.astype(np.intp)] = 1
    return marks


def qr_table(p: int | OddPrime) -> bytes:
    """Length-p lookup table: entry a is 1 iff a is a quadratic residue mod p.

    Entry 0 is 0. A bytes object indexes faster than a numpy array in
    per-element Python loops; vectorised code reads _qr_marks instead.
    """
    return _qr_marks(as_prime(p).value).tobytes()


def qr_value_sum(p: int | OddPrime) -> int:
    """Exact sum of all quadratic residues in [1, p-1], in Python integers:
    the residue sum of the sieve's squares pass."""
    return half_sum_sieve(p, sum_residues=True).residue_sum


# psi's asymptotic series in w = 1/y^2, lowest power first: B_2k/(2k) w^k for k = 1 .. 7.
_PSI_SERIES = (0.0, 1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(y: np.ndarray) -> np.ndarray:
    """psi(y) for y > 0: if any y < 10, psi(y) = psi(y + 10) - sum_{j<10} 1/(y + j)
    (DLMF 5.5.2), then the asymptotic series (DLMF 5.11.2) through B_14, whose error
    is below its first omitted term, 3617/(8160 y^16) <= 4.5e-17 at y >= 10."""
    lift = 10 if y.min() < 10 else 0
    z = y + lift
    series = np.polynomial.polynomial.polyval(1.0 / (z * z), _PSI_SERIES)
    return np.log(z) - 0.5 / z - series - sum(1.0 / (y + j) for j in range(lift))


def l_series_partial(p: int | OddPrime, terms: int) -> float:
    """Partial sum of L(1, chi) = sum of (n/p)/n for n = 1 .. terms, in O(p) at any length.
    With terms = q*p + s, class r mod p has K_r = q + (r <= s) terms, which sum to
    (psi(r/p + K_r) - psi(r/p))/p (DLMF 5.5.2): twice over the residues, which one squares
    pass meets once each, less H(terms) - H(q)/p over all classes, H(n) = psi(n + 1) - psi(1).
    Rounding, ~1e-14 in all, is the error: psi's series is cut below 4.5e-17 (DLMF 5.11.2)."""
    pv = as_prime(p).value
    if terms > _L_TERMS_LIMIT:
        raise ResourceLimitError(f"{terms} terms exceed the L-series limit {_L_TERMS_LIMIT}")
    q, s = divmod(max(terms, 0), pv)  # terms <= 0 is the empty sum
    residues = 0.0
    for _, _, u, w in _quotients(pv):
        np.subtract(u, np.floor(u, out=w), out=w)
        r = np.trunc(np.multiply(w, pv, out=w), out=w)  # x^2 mod p, as _qr_marks reads it
        y = np.divide(r, pv, out=u)
        residues += float(np.sum(_digamma(y + (q + (r <= s))) - _digamma(y)))
    h_n, h_q, psi_1 = _digamma(np.array([q * pv + s + 1.0, q + 1.0, 1.0]))
    return 2 * residues / pv - (h_n - psi_1) + (h_q - psi_1) / pv
