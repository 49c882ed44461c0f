"""Class numbers h(-p) for p = 3 mod 4, by two independent methods.

Method one enumerates reduced binary quadratic forms of discriminant -p
by divisor enumeration: for each odd b <= sqrt(p/3) it factors
q = (b^2 + p)/4 = a*c with b <= a <= c, about p/15 trial divisions in
all. The trial divisions run as numpy columns over rows (p, b), a block
of consecutive rows at a time, and a block may run from one prime into
the next, so a batch of small primes shares its numpy calls. The forms
are returned as columns. A divisor
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
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .arith import OddPrime, as_prime, legendre_euler
from .charsum import _SIEVE_LIMIT, half_sum_sieve, l_series_partial, qr_value_sum
from .errors import ConsistencyError, DomainError, ResourceLimitError

# Trial divisors per block of the forms enumeration, and rows (p, b) per
# group of primes whose rows are built at once. Near 10^6 on a 2-vCPU x86
# host, 2^13 took 0.56 ms per prime (median of 8 processes) and 2^14
# 0.73 ms with twice the spread; 2^12 and 2^15 were slower still. A single
# row with more divisors than this gets a block of its own, and a single
# prime with more rows (up to ~13.4k below the limit) a group of its own.
_BLOCK = 1 << 13

# Offsets within a block. Below the limit a block holds at most
# max(_BLOCK, isqrt((1 + p)/4)) < 2^15 divisors: b = 1 has the most.
_IOTA = np.arange(1 << 15, dtype=np.float64)


@dataclass(frozen=True)
class ClassNumberRecord:
    """h(-p) from both methods plus the A(p) identity sides, for the
    validated prime, which callers pass on instead of validating p again."""

    prime: OddPrime
    h_forms: int
    h_charsum: int
    identity_lhs: int
    identity_rhs: int

    @property
    def p(self) -> int:
        return self.prime.value

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
class ReducedForms:
    """The reduced forms of one discriminant, held as columns.

    Column i is the form (a[i], b[i], c[i]) with b[i] > 0, ordered by b,
    then a. Each column with b != a and a != c also stands for the form
    (a[i], -b[i], c[i]), so the length, h(-p), counts it twice.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return int(_forms_per_column(self.a, self.b, self.c).sum())


def _forms_per_column(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """2 for a column that also stands for its mirror (a, -b, c), else 1."""
    return 2 - ((b == a) | (a == c))


def _forms_input(ps: Iterable[int | OddPrime]) -> list[OddPrime]:
    """ps validated as primes = 3 mod 4 other than 3, and each below 2^31.

    Raises ResourceLimitError for a batch that holds any p >= 2^31, before
    any prime's forms are enumerated.
    """
    ops = [_require_3mod4(p) for p in ps]
    for op in ops:
        if op.value >= _SIEVE_LIMIT:
            raise ResourceLimitError(
                f"p = {op.value} exceeds the class-number limit {_SIEVE_LIMIT}"
            )
    return ops


def _factorisations(pvs: list[int]) -> Iterator[tuple[np.ndarray, ...]]:
    """The reduced forms of -p for each p in pvs, a group of primes at a time.

    Divisor enumeration (Cohen, GTM 138, Alg. 5.3.5): b is odd because p
    is, and |b| <= a <= c forces |b| <= sqrt(p/3). For each odd b >= 1,
    the forms with middle coefficient +-b are the factorisations
    q = (b^2 + p)/4 = a*c with b <= a <= sqrt(q). That is about p/15
    trial divisions, against p/3 candidates for a search over (a, b).

    A row is one (p, b). Rows are built for a group of consecutive primes
    whose rows total at most _BLOCK, and at least one prime, so memory
    stays that of one prime's rows near the limit. The trial divisions
    run in blocks of consecutive rows with about _BLOCK divisors in all,
    which may cross from one prime to the next, each block one float64
    column of d and one of q/d, exact for q < 2^53 (see the module
    docstring). Each group yields its hits as columns (owner, a, b, c):
    the form (a, b, c), b > 0, of discriminant -pvs[owner], ordered by
    owner, then b, then a. Every p must be = 3 mod 4, in (3, 2^31).
    """
    pv = np.asarray(pvs, dtype=np.int64)
    # The truncated float sqrt is isqrt for values below 2^52.
    rows = (np.sqrt(pv // 3).astype(np.int64) + 1) // 2
    row_ends = np.cumsum(rows)
    first = 0
    while first < len(pv):
        budget = row_ends[first] - rows[first] + _BLOCK
        last = max(first + 1, int(np.searchsorted(row_ends, budget, "right")))
        m = rows[first:last]
        owner = np.repeat(np.arange(first, last), m)
        b = 2 * (np.arange(len(owner)) - np.repeat(np.cumsum(m) - m, m)) + 1
        q = (b * b + pv[owner]) // 4
        # q >= b^2, so every row has n >= 1 trial divisors.
        n = np.sqrt(q).astype(np.int64) - b + 1
        ends = np.cumsum(n)
        qf = q.astype(np.float64)
        a_hits, row_hits = [], []
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
            # Most blocks of a large p have no hit. A group is never without
            # one: each p has the form (1, 1, (1 + p)/4).
            if hit.size:
                a_hits.append(d[hit])
                row_hits.append(np.searchsorted(starts, hit, "right") + (i - 1))
            done = int(ends[j - 1])
            i = j
        a = np.concatenate(a_hits).astype(np.int64)
        r = np.concatenate(row_hits)
        yield owner[r], a, b[r], q[r] // a
        first = last


def reduced_forms(p: int | OddPrime) -> ReducedForms:
    """All reduced forms (a, b, c) with b^2 - 4ac = -p, as columns.

    Reduction conditions: -a < b <= a <= c, with b >= 0 whenever a = c.
    Exactly one form per equivalence class, so the count is h(-p). The
    forms come from _factorisations run on [p]. The result holds the
    factorisations as columns, b > 0 only; see ReducedForms for the
    mirrored forms.

    Raises ResourceLimitError for p >= 2^31, before any work.
    """
    [op] = _forms_input([p])
    [(_, a, b, c)] = _factorisations([op.value])
    return ReducedForms(a, b, c)


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


def identity_checks(ps: Iterable[int | OddPrime]) -> list[ClassNumberRecord]:
    """Check A(p) = (2 - (2/p)) * h(-p) for each p of ps, with h computed both ways.

    The forms h of every prime come from one columnar pass over the
    batch (see _factorisations), counted per prime by owner. A(p) and the
    residue sum behind the character-sum h come from one squares pass per
    prime. Records are returned in the order of ps. A mismatch is
    returned in its record, never raised, so callers can report both
    sides. Raises ResourceLimitError for a batch that holds any p >= 2^31,
    before any work.
    """
    ops = _forms_input(ps)
    h_forms = np.zeros(len(ops))
    for owner, a, b, c in _factorisations([op.value for op in ops]):
        h_forms += np.bincount(owner, _forms_per_column(a, b, c), len(ops))
    records = []
    for op, h in zip(ops, h_forms.astype(np.int64).tolist()):
        rec = half_sum_sieve(op, sum_residues=True)
        h_chs = _h_from_residue_sum(op.value, rec.residue_sum)
        rhs = (2 - legendre_euler(2, op)) * h
        records.append(ClassNumberRecord(op, h, h_chs, rec.a_value, rhs))
    return records


def identity_check(p: int | OddPrime) -> ClassNumberRecord:
    """identity_checks for the one prime p."""
    return identity_checks([p])[0]


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
    here unless a caller that already has them, such as an identity_checks
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
        tolerance=5.0 / math.sqrt(terms),
        identity_residual=residual,
    )
