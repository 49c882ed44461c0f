"""Class numbers h(-p) for p = 3 mod 4, by two independent methods.

Method one enumerates reduced binary quadratic forms of discriminant -p
by divisor enumeration: for each odd b <= sqrt(p/3) it factors
(b^2 + p)/4 = a*c with b <= a <= c, about p/15 trial divisions in all.
Method two evaluates the finite character sum h = -(1/p) * sum a*(a/p)
with exact integer arithmetic. The identity A(p) = (2 - (2/p)) * h(-p)
ties both to the half-interval sum, and a truncated Dirichlet series
estimate of L(1, chi) cross-checks the analytic wiring.

p = 3 is excluded everywhere: the unit group of Q(sqrt(-3)) has six
elements and the simple identity fails there (A(3) = 1 but 3*h = 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import OddPrime, as_prime, legendre_euler
from .charsum import half_sum, qr_value_sum, _qr_marks
from .errors import ConsistencyError, DomainError

_BLOCK = 1 << 19


@dataclass(frozen=True)
class ReducedForm:
    """A reduced positive definite form ax^2 + bxy + cy^2 of discriminant -p."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


@dataclass(frozen=True)
class ClassNumberRecord:
    """h(-p) from both methods plus the A(p) identity sides."""

    p: int
    h_forms: int
    h_charsum: int
    identity_lhs: int
    identity_rhs: int

    @property
    def methods_agree(self) -> bool:
        return self.h_forms == self.h_charsum

    @property
    def identity_holds(self) -> bool:
        return self.identity_lhs == self.identity_rhs

    @property
    def ok(self) -> bool:
        return self.methods_agree and self.identity_holds


@dataclass(frozen=True)
class LFunctionRecord:
    """Truncated L(1, chi) estimate against the exact class-number value."""

    p: int
    terms: int
    l_exact: float
    l_partial: float
    tau_magnitude: float
    tolerance: float
    identity_residual: float

    @property
    def within_tolerance(self) -> bool:
        return abs(self.l_partial - self.l_exact) <= self.tolerance


def _require_3mod4(p: int | OddPrime) -> OddPrime:
    op = as_prime(p)
    if op.value % 4 != 3:
        raise DomainError(f"p must be 3 mod 4, got {op.value}")
    if op.value == 3:
        raise DomainError("p = 3 is excluded (six units in Q(sqrt(-3)))")
    return op


def reduced_forms(p: int | OddPrime) -> list[ReducedForm]:
    """All reduced forms (a, b, c) with b^2 - 4ac = -p, ordered by (a, b).

    Reduction conditions: -a < b <= a <= c, with b >= 0 whenever a = c.
    Exactly one form per equivalence class, so the count is h(-p).

    Divisor enumeration (Cohen, GTM 138, Alg. 5.3.5): b is odd because p
    is, and |b| <= a <= c forces |b| <= sqrt(p/3). For each odd b >= 1,
    the forms with middle coefficient +-b are the factorisations
    q = (b^2 + p)/4 = a*c with b <= a <= sqrt(q). That is about p/15
    trial divisions, against p/3 candidates for a search over (a, b).
    """
    pv = _require_3mod4(p).value
    found = []
    for b in range(1, isqrt(pv // 3) + 1, 2):
        q = (b * b + pv) // 4
        for a in [d for d in range(b, isqrt(q) + 1) if q % d == 0]:
            c = q // a
            found.append((a, b, c))
            if b != a and a != c:
                found.append((a, -b, c))
    found.sort()
    return [ReducedForm(a, b, c) for a, b, c in found]


def reduced_forms_count(p: int | OddPrime) -> int:
    """h(-p) as the number of reduced forms of discriminant -p."""
    return len(reduced_forms(p))


def class_number_character_sum(p: int | OddPrime) -> int:
    """h(-p) = -(1/p) * sum_{a=1}^{p-1} a*(a/p), exact integers throughout.

    The signed sum equals 2*S - p(p-1)/2 where S is the sum of all
    quadratic residues in [1, p-1]; the division by p must be exact.
    """
    op = _require_3mod4(p)
    pv = op.value
    signed = 2 * qr_value_sum(op) - pv * (pv - 1) // 2
    h, rem = divmod(-signed, pv)
    if rem != 0:
        raise ConsistencyError(f"character sum {signed} is not divisible by {pv}")
    if h <= 0:
        raise ConsistencyError(f"character-sum class number {h} is not positive")
    return h


def identity_check(p: int | OddPrime) -> ClassNumberRecord:
    """Check A(p) = (2 - (2/p)) * h(-p) with h computed both ways.

    A mismatch is returned in the record, never raised, so callers can
    report both sides.
    """
    op = _require_3mod4(p)
    h_forms = reduced_forms_count(op)
    h_chs = class_number_character_sum(op)
    a_value = half_sum(op).a_value
    rhs = (2 - legendre_euler(2, op)) * h_forms
    return ClassNumberRecord(op.value, h_forms, h_chs, a_value, rhs)


def l_value_estimate(p: int | OddPrime, terms: int) -> LFunctionRecord:
    """Estimate L(1, chi) by a truncated series against pi*h/sqrt(p).

    Also verifies the exact wiring A(p) = (sqrt(p)/pi)*(2-(2/p))*l_exact
    to within 1e-9; a larger residual means a plumbing bug, and raises.
    """
    op = _require_3mod4(p)
    pv = op.value
    if terms < pv:
        raise DomainError(f"terms must be >= p = {pv}, got {terms}")
    h = class_number_character_sum(op)
    l_exact = math.pi * h / math.sqrt(pv)

    signs = np.where(_qr_marks(pv) == 1, 1.0, -1.0)
    signs[0] = 0.0
    l_partial = 0.0
    for start in range(1, terms + 1, _BLOCK):
        n = np.arange(start, min(start + _BLOCK - 1, terms) + 1, dtype=np.int64)
        l_partial += float(np.sum(signs[n % pv] / n))

    a_value = half_sum(op).a_value
    wired = math.sqrt(pv) / math.pi * (2 - legendre_euler(2, op)) * l_exact
    residual = abs(a_value - wired)
    if residual >= 1e-9:
        raise ConsistencyError(
            f"identity wiring off by {residual} at p = {pv}; expected < 1e-9"
        )
    return LFunctionRecord(
        p=pv,
        terms=terms,
        l_exact=l_exact,
        l_partial=l_partial,
        tau_magnitude=math.sqrt(pv),
        tolerance=5.0 / math.sqrt(terms),
        identity_residual=residual,
    )
