"""Exact modular arithmetic: primality testing and Legendre symbols.

The Legendre symbol (a/p) is computed by two independent routes, Euler's
criterion and quadratic reciprocity, so each can serve as a check on the
other.
"""

from __future__ import annotations

from .errors import ConsistencyError, DomainError

# Deterministic Miller-Rabin witness set: no strong pseudoprime to all
# twelve is below 318,665,857,834,031,151,167,461 (Sorenson and Webster
# 2015). They also serve as the trial divisors.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Smaller sets that suffice below a bound: (bound, witnesses), each bound
# the least strong pseudoprime to all of its witnesses (Jaeschke 1993).
# Above the last bound the twelve are used.
_MR_TIERS = (
    (3_215_031_751, _MR_WITNESSES[:4]),
    (3_474_749_660_383, _MR_WITNESSES[:6]),
    (341_550_071_728_321, _MR_WITNESSES[:7]),
)

# Moduli are capped to the 64-bit range so intermediates stay double-width.
_VALUE_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit-range naturals."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = next((ws for bound, ws in _MR_TIERS if n < bound), _MR_WITNESSES)
    for w in witnesses:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPrime:
    """A validated odd prime with its residue class mod 8 and k = (p - r) / 8.

    Construction verifies primality eagerly; every downstream claim is
    vacuous on composites.
    """

    __slots__ = ("value", "residue_mod_8", "k")

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"prime must be an integer, got {value!r}")
        if value >= _VALUE_LIMIT:
            raise DomainError(f"{value} exceeds the 64-bit modulus cap")
        if value < 3 or value % 2 == 0 or not is_prime(value):
            raise DomainError(f"{value} is not an odd prime")
        self.value = value
        self.residue_mod_8 = value % 8
        self.k = value >> 3

    def __repr__(self) -> str:
        return f"OddPrime({self.value})"

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OddPrime):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


def as_prime(p: int | OddPrime) -> OddPrime:
    """Coerce an int to OddPrime, validating; pass OddPrime through."""
    if isinstance(p, OddPrime):
        return p
    return OddPrime(p)


def legendre_euler(a: int, p: int | OddPrime) -> int:
    """Legendre symbol (a/p) via Euler's criterion a**((p-1)/2) mod p.

    Returns 0 if p divides a, +1 for quadratic residues, -1 otherwise.
    Negative and oversized a are reduced mod p first.
    """
    pv = as_prime(p).value
    a %= pv
    if a == 0:
        return 0
    t = pow(a, (pv - 1) // 2, pv)
    if t == 1:
        return 1
    if t == pv - 1:
        return -1
    raise ConsistencyError(f"Euler criterion gave {t} for a={a}, p={pv}")


def legendre_reciprocity(a: int, p: int | OddPrime) -> int:
    """Legendre symbol (a/p) via the binary Jacobi-symbol algorithm.

    Uses the second supplement to strip factors of two and quadratic
    reciprocity to swap, with no modular exponentiation. Agrees with
    legendre_euler on every input.
    """
    n = as_prime(p).value
    a %= n
    if a == 0:
        return 0
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    # n is now gcd(a, p) = 1 because the modulus is prime and a was nonzero.
    if n != 1:
        return 0
    return sign
