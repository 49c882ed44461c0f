"""Class numbers h(-p) for p = 3 mod 4, by two independent methods.

Method one enumerates reduced binary quadratic forms of discriminant -p
by divisor enumeration: for each odd b <= sqrt(p/3) it factors
q = (b^2 + p)/4 = a*c with b <= a <= c, about p/15 trial divisions in
all. The trial divisions run as numpy columns, a block of consecutive b
at a time, and a form becomes an object only when it is read. A divisor
d divides q exactly when q/d in float64 is an integer: for d not
dividing q, q/d lies at least 1/d from every integer, more than its
rounding error of (q/d)*2^-53 whenever q < 2^53. q stays below 2^31
under the class-number limit, so the test is exact.
Method two evaluates the finite character sum h = -(1/p) * sum a*(a/p)
with exact integer arithmetic. The identity A(p) = (2 - (2/p)) * h(-p)
ties both to the half-interval sum, and a truncated Dirichlet series
estimate of L(1, chi) cross-checks the analytic wiring.

Both methods accept p below 2^31, the limit of the squares kernel behind
method two; the forms method would take hours far beyond it.

p = 3 is excluded everywhere: the unit group of Q(sqrt(-3)) has six
elements and the simple identity fails there (A(3) = 1 but 3*h = 3).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Optional

import numpy as np

from .arith import OddPrime, as_prime, legendre_euler
from .charsum import _SIEVE_LIMIT, half_sum_sieve, l_series_partial, qr_value_sum
from .errors import ConsistencyError, DomainError, ResourceLimitError

# Trial divisors per block of the forms enumeration. Near 10^6 on a
# 2-vCPU x86 host, 2^13 took 0.56 ms per prime (median of 8 processes)
# and 2^14 0.73 ms with twice the spread; 2^12 and 2^15 were slower
# still. A single b with more divisors than this gets a block of its own.
_BLOCK = 1 << 13

# Offsets within a block. Below the limit a block holds at most
# max(_BLOCK, isqrt((1 + p)/4)) < 2^15 divisors: b = 1 has the most.
_IOTA = np.arange(1 << 15, dtype=np.float64)


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


@dataclass(eq=False)
class ReducedForms(Sequence):
    """The reduced forms of one discriminant, held as columns.

    Column i is the form (a[i], b[i], c[i]) with b[i] > 0. Each column
    with b != a and a != c also stands for (a[i], -b[i], c[i]), so the
    length needs no objects. Reading builds every ReducedForm, ordered by
    (a, b).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return 2 * len(self.a) - int(np.count_nonzero((self.b == self.a) | (self.a == self.c)))

    @cached_property
    def _forms(self) -> list[ReducedForm]:
        a, b, c = self.a, self.b, self.c
        mirror = (b != a) & (a != c)
        a = np.concatenate((a, a[mirror]))
        b = np.concatenate((b, -b[mirror]))
        c = np.concatenate((c, c[mirror]))
        order = np.lexsort((b, a))
        return list(map(ReducedForm, a[order].tolist(), b[order].tolist(), c[order].tolist()))

    def __getitem__(self, i):
        return self._forms[i]


def reduced_forms(p: int | OddPrime) -> ReducedForms:
    """All reduced forms (a, b, c) with b^2 - 4ac = -p, ordered by (a, b).

    Reduction conditions: -a < b <= a <= c, with b >= 0 whenever a = c.
    Exactly one form per equivalence class, so the count is h(-p).

    Divisor enumeration (Cohen, GTM 138, Alg. 5.3.5): b is odd because p
    is, and |b| <= a <= c forces |b| <= sqrt(p/3). For each odd b >= 1,
    the forms with middle coefficient +-b are the factorisations
    q = (b^2 + p)/4 = a*c with b <= a <= sqrt(q). That is about p/15
    trial divisions, against p/3 candidates for a search over (a, b).
    They run in blocks of consecutive b with about _BLOCK divisors in
    all, each one float64 column of d and one of q/d, exact for q < 2^53
    (see the module docstring). The result holds the factorisations as
    columns and builds ReducedForm objects only when read.

    Raises ResourceLimitError for p >= 2^31, before any work.
    """
    pv = _require_3mod4(p).value
    if pv >= _SIEVE_LIMIT:
        raise ResourceLimitError(f"p = {pv} exceeds the class-number limit {_SIEVE_LIMIT}")
    b = np.arange(1, isqrt(pv // 3) + 1, 2)
    q = (b * b + pv) // 4
    # The truncated float sqrt is isqrt(q) for q < 2^52. q >= b^2, so n >= 1.
    n = np.sqrt(q).astype(np.int64) - b + 1
    ends = np.cumsum(n)
    qf = q.astype(np.float64)
    a_hits, b_hits = [], []
    i = done = 0
    while i < len(b):
        j = max(i + 1, int(np.searchsorted(ends, done + _BLOCK, "right")))
        nb = n[i:j]
        starts = ends[i:j] - nb - done
        d = np.repeat((b[i:j] - starts).astype(np.float64), nb)
        d += _IOTA[: len(d)]
        t = np.repeat(qf[i:j], nb)
        t /= d
        hit = np.flatnonzero(t == np.floor(t))
        a_hits.append(d[hit])
        b_hits.append(b[i:j][np.searchsorted(starts, hit, "right") - 1])
        done = int(ends[j - 1])
        i = j
    a = np.concatenate(a_hits).astype(np.int64)
    b = np.concatenate(b_hits)
    return ReducedForms(a, b, (b * b + pv) // 4 // a)


def reduced_forms_count(p: int | OddPrime) -> int:
    """h(-p) as the number of reduced forms of discriminant -p."""
    return len(reduced_forms(p))


def class_number_character_sum(p: int | OddPrime) -> int:
    """h(-p) = -(1/p) * sum_{a=1}^{p-1} a*(a/p), exact integers throughout.

    The signed sum equals 2*S - p(p-1)/2 where S is the sum of all
    quadratic residues in [1, p-1]; the division by p must be exact.
    """
    op = _require_3mod4(p)
    return _h_from_residue_sum(op.value, qr_value_sum(op))


def _h_from_residue_sum(pv: int, residue_sum: int) -> int:
    """h(-p) from S, the sum of all quadratic residues in [1, p-1]."""
    signed = 2 * residue_sum - pv * (pv - 1) // 2
    h, rem = divmod(-signed, pv)
    if rem != 0:
        raise ConsistencyError(f"character sum {signed} is not divisible by {pv}")
    if h <= 0:
        raise ConsistencyError(f"character-sum class number {h} is not positive")
    return h


def identity_check(p: int | OddPrime) -> ClassNumberRecord:
    """Check A(p) = (2 - (2/p)) * h(-p) with h computed both ways.

    A(p) and the residue sum behind the character-sum h come from one
    squares pass. A mismatch is returned in the record, never raised, so
    callers can report both sides.
    """
    op = _require_3mod4(p)
    h_forms = reduced_forms_count(op)
    rec = half_sum_sieve(op, sum_residues=True)
    h_chs = _h_from_residue_sum(op.value, rec.residue_sum)
    rhs = (2 - legendre_euler(2, op)) * h_forms
    return ClassNumberRecord(op.value, h_forms, h_chs, rec.a_value, rhs)


def l_value_estimate(
    p: int | OddPrime,
    terms: int,
    *,
    h: Optional[int] = None,
    a_value: Optional[int] = None,
) -> LFunctionRecord:
    """Estimate L(1, chi) by a truncated series against pi*h/sqrt(p).

    Also verifies the exact wiring A(p) = (sqrt(p)/pi)*(2-(2/p))*l_exact
    to within 1e-9; a larger residual means a plumbing bug, and raises.
    h (the character-sum class number) and a_value (A(p)) are computed
    here unless a caller that already has them, such as identity_check's
    record, passes them on.
    """
    op = _require_3mod4(p)
    pv = op.value
    if terms < pv:
        raise DomainError(f"terms must be >= p = {pv}, got {terms}")
    if h is None:
        h = class_number_character_sum(op)
    if a_value is None:
        a_value = half_sum_sieve(op).a_value
    l_exact = math.pi * h / math.sqrt(pv)
    l_partial = l_series_partial(op, terms)

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
