"""Constructive audit of quadratic-residue production in the half interval.

For a prime p = 3 mod 4 let A = [1, (p-1)/2]. The construction claims that
a specific system of pairing families locates at least (p+1)/4 distinct
quadratic residues inside A, which forces A(p) > 0. This module executes
every family rule, selects each pair's residue member by actual symbol
evaluation, and audits three separate claims:

  1. every pair really contains a residue that lies in A (pair soundness);
  2. the per-family counts meet their closed-form floor bounds;
  3. the chosen residues are distinct across families, except for one
     sanctioned overlap (the element 4 in Case 1, which the count bounds
     already discount).

Failures are never patched over; they become structured verdicts:

  - BoundViolation: some pair has no residue inside A (or a count bound
    fails with the dedup ledger otherwise clean);
  - DedupAnomaly: all pairs are sound but unsanctioned duplicates were
    observed, so distinct counts may fall short of the claims;
  - Verified: sound pairs, no unsanctioned duplicates, threshold and all
    bounds met.

Case 1 covers p = 8k+3 (where 2 is a non-residue), Case 2 covers p = 8k+7
(where 2 is a residue); primes p <= 31 are verified directly from A(p).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .arith import OddPrime, as_prime, legendre_euler
from .charsum import half_sum_direct, qr_table
from .errors import ConsistencyError, DomainError
from .floorlemma import floor_half_series

CASE_ONE = "Case1"
CASE_TWO = "Case2"
SMALL_REGIME = "SmallRegime"

VERIFIED = "Verified"
BOUND_VIOLATION = "BoundViolation"
DEDUP_ANOMALY = "DedupAnomaly"

# Primes handled by direct verification instead of the construction.
SMALL_REGIME_PRIMES = (3, 7, 11, 19, 23, 31)

# Above this, witness lookups fall back to Euler's criterion per element
# instead of a precomputed table.
_TABLE_CUTOFF = 1 << 26

QrLookup = Callable[[int], bool]


class PairWitness(NamedTuple):
    """One executed pairing step.

    Exactly one of {candidate mod p, partner mod p} is a quadratic residue.
    chosen_qr is that residue when it lies in [1, (p-1)/2], else None,
    recording a pair the construction could not use.
    """

    candidate: int
    partner: int
    chosen_qr: Optional[int]


class DedupEntry(NamedTuple):
    """An element claimed as a witness by more than one generation site."""

    element: int
    sites: tuple[str, ...]
    expected: bool


@dataclass
class FamilyReport:
    """Audit record for one pairing family."""

    family_id: str
    claimed_bound: int
    witnesses: list[PairWitness] = field(default_factory=list)
    subfamily: Optional[int] = None
    distinct_contribution: int = 0

    @property
    def failed_pairs(self) -> list[PairWitness]:
        return [w for w in self.witnesses if w.chosen_qr is None]


@dataclass
class ConstructionReport:
    """Full audit of the construction run for one prime."""

    p: int
    case: str
    k: int
    families: list[FamilyReport]
    required_threshold: int
    claimed_total: int
    distinct_qr_total: int
    dedup_ledger: list[DedupEntry]
    verdict: str
    # For a BoundViolation, the first claim that failed; empty otherwise.
    reason: str

    @property
    def threshold_met(self) -> bool:
        return self.distinct_qr_total >= self.required_threshold

    @property
    def bounds_met(self) -> bool:
        return all(
            f.distinct_contribution >= f.claimed_bound for f in self.families
        )

    @property
    def failed_pairs(self) -> list[PairWitness]:
        return [w for f in self.families for w in f.failed_pairs]

    @property
    def unexpected_duplicates(self) -> list[DedupEntry]:
        return [e for e in self.dedup_ledger if not e.expected]

    def to_json_dict(self) -> dict:
        fams = []
        for f in self.families:
            entry: dict = {"id": f.family_id}
            if f.subfamily is not None:
                entry["j"] = f.subfamily
            entry["bound"] = f.claimed_bound
            entry["contributed"] = f.distinct_contribution
            entry["witnesses"] = [
                [w.candidate, w.partner, w.chosen_qr] for w in f.witnesses
            ]
            fams.append(entry)
        return {
            "schema": 1,
            "p": self.p,
            "case": self.case,
            "claimed_total": self.claimed_total,
            "threshold": self.required_threshold,
            "distinct_total": self.distinct_qr_total,
            "families": fams,
            "dedup": [
                {"element": e.element, "sites": list(e.sites), "expected": e.expected}
                for e in self.dedup_ledger
            ],
            "verdict": self.verdict,
        }


def classify_case(p: int | OddPrime) -> str:
    """Route a prime to Case1 (8k+3), Case2 (8k+7) or the small regime."""
    op = as_prime(p)
    if op.value % 4 != 3:
        raise DomainError("construction applies only to p = 3 mod 4")
    if op.value <= 31:
        return SMALL_REGIME
    return CASE_ONE if op.residue_mod_8 == 3 else CASE_TWO


def case1_bounds(k: int) -> tuple[int, int, int, int, int]:
    """Per-family floor bounds for p = 8k+3; the five entries sum to 2k+1.

    The sum identity holds for every k >= 0 under floor semantics (the
    third entry is negative for k = 0).
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return (
        (4 * k + 5) // 6,
        (4 * k + 3) // 12,
        (4 * k - 3) // 12,
        (4 * k + 1) // 6,
        2,
    )


def case2_bounds(k: int) -> tuple[int, int, int, int, int]:
    """Per-family floor bounds for p = 8k+7; the five entries sum to 2k+3."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return (
        (k + 2) // 2,
        (k + 1) // 2,
        (2 * k + 5) // 4,
        (2 * k + 3) // 4,
        1,
    )


def _qr_predicate(op: OddPrime) -> QrLookup:
    """Fast residue test on [0, p): table lookup, or Euler above the cutoff."""
    if op.value <= _TABLE_CUTOFF:
        table = qr_table(op)
        return lambda a: table[a] == 1
    return lambda a: legendre_euler(a, op) == 1


def _pair_family(
    family_id: str,
    bound: int,
    cands: range,
    parts: range,
    is_qr: QrLookup,
    subfamily: Optional[int] = None,
) -> FamilyReport:
    """Run one ratio-pair family: the i-th candidate pairs with the i-th partner.

    Exactly one member of each pair must be a residue, and that member is
    the witness. The candidate progression sets the pair count, which must
    equal the family's closed-form floor bound.
    """
    fam = FamilyReport(family_id, bound, subfamily=subfamily)
    for cand, part in zip(cands, parts):
        qa = is_qr(cand)
        if qa == is_qr(part):
            raise ConsistencyError(f"{family_id} pair ({cand}, {part}): not exactly one residue")
        fam.witnesses.append(PairWitness(cand, part, cand if qa else part))
    if len(fam.witnesses) != bound:
        tag = family_id if subfamily is None else f"{family_id}[j={subfamily}]"
        raise ConsistencyError(f"{tag} pair count disagrees with its floor bound")
    return fam


def _site(fam: FamilyReport, i: int) -> str:
    """Ledger label of the i-th witness of a family."""
    if fam.family_id == "C1_F4":
        return f"C1_F4[j={fam.subfamily},m={2 * i + 1}]"
    if fam.family_id == "C1_SPECIALS":
        return f"C1_SPECIALS[{fam.witnesses[i].candidate}]"
    if fam.family_id == "C2_TWO":
        return "C2_TWO"
    return f"{fam.family_id}[h={i}]"


def _is_expected_overlap(case: str, element: int, sites: list[tuple[FamilyReport, int]]) -> bool:
    # Case 1 discounts exactly one overlap: the element 4, produced by the
    # first family's pair (8, 4) and by the third family's element 4.
    if case != CASE_ONE or element != 4 or len(sites) != 2:
        return False
    return {fam.family_id for fam, _ in sites} == {"C1_F1", "C1_F3"}


def _finalize(
    op: OddPrime,
    case: str,
    families: list[FamilyReport],
    claimed_total: int,
    threshold: int,
) -> ConstructionReport:
    """Dedup accounting, verdict and reason for an executed family system."""
    # Every witness with a residue claims it, in generation order. First
    # claim wins: each family is credited only with elements no earlier
    # family already produced.
    claims: dict[int, list[tuple[FamilyReport, int]]] = {}
    for fam in families:
        count = 0
        for i, w in enumerate(fam.witnesses):
            if w.chosen_qr is None:
                continue
            sites = claims.setdefault(w.chosen_qr, [])
            if not sites:
                count += 1
            sites.append((fam, i))
        fam.distinct_contribution = count

    ledger = [
        DedupEntry(
            element,
            tuple(_site(fam, i) for fam, i in sites),
            _is_expected_overlap(case, element, sites),
        )
        for element, sites in sorted(claims.items())
        if len(sites) > 1
    ]

    if claimed_total != sum(f.claimed_bound for f in families):
        raise ConsistencyError("family bounds do not aggregate to the claimed total")

    # One ladder decides the verdict and, for a violation, its reason.
    failed = next(((fam, w) for fam in families for w in fam.failed_pairs), None)
    short = next((f for f in families if f.distinct_contribution < f.claimed_bound), None)
    verdict, reason = BOUND_VIOLATION, ""
    if failed:
        fam, w = failed
        reason = (
            f"pair ({w.candidate}, {w.partner}) in {fam.family_id}: "
            f"no residue lands in [1, {(op.value - 1) // 2}]"
        )
    elif any(not e.expected for e in ledger):
        verdict = DEDUP_ANOMALY
    elif len(claims) < threshold:
        reason = f"distinct {len(claims)} < threshold {threshold}"
    elif short:
        reason = (
            f"family {short.family_id} contributed "
            f"{short.distinct_contribution} < bound {short.claimed_bound}"
        )
    else:
        verdict = VERIFIED

    return ConstructionReport(
        p=op.value,
        case=case,
        k=op.k,
        families=families,
        required_threshold=threshold,
        claimed_total=claimed_total,
        distinct_qr_total=len(claims),
        dedup_ledger=ledger,
        verdict=verdict,
        reason=reason,
    )


def construct_case1(p: int | OddPrime, qr_lookup: Optional[QrLookup] = None) -> ConstructionReport:
    """Execute the Case 1 (p = 8k+3) family system and audit it.

    Families over A = [1, 4k+1], with 2 a non-residue:

      C1_F1       pairs 6h+2 with 3h+1 (ratio 2, exactly one is a residue)
      C1_F2       pairs 12h+10 with 6h+5
      C1_F3       elements 12h+4; if x is a non-residue, falls back to 2x,
                  then to p-4x reduced mod p, whichever lands in A
      C1_F4       pairs 3*2^j*m with 3*2^(j-1)*m for odd m, one subfamily
                  per j up to the bit length of 4k+1
      C1_SPECIALS (p-1)/2 = 4k+1 and (p-9)/2 = 4k-3, residues outright
    """
    op = as_prime(p)
    if op.residue_mod_8 != 3 or op.value <= 31:
        raise DomainError(f"Case 1 requires p = 3 mod 8 and p > 31, got {op.value}")
    pv, k = op.value, op.k
    half = 4 * k + 1
    is_qr = qr_lookup if qr_lookup is not None else _qr_predicate(op)

    if is_qr(2 % pv):
        raise ConsistencyError(f"(2/{pv}) must be -1 when p = 3 mod 8")
    if is_qr(pv - 1):
        raise ConsistencyError(f"(-1/{pv}) must be -1 when p = 3 mod 4")

    b1, b2, b3, b4, b_specials = case1_bounds(k)
    families = [
        _pair_family("C1_F1", b1, range(2, half + 1, 6), range(1, half, 3), is_qr),
        _pair_family("C1_F2", b2, range(10, half + 1, 12), range(5, half, 6), is_qr),
    ]

    # C1_F3's bound is one below its element count: the element 4 (h = 0)
    # always duplicates C1_F1's witness from the pair (8, 4).
    f3 = FamilyReport("C1_F3", b3)
    for h in range(0, (4 * k - 3) // 12 + 1):
        x = 12 * h + 4
        if is_qr(x):
            f3.witnesses.append(PairWitness(x, 2 * x, x))
        else:
            dbl = 2 * x
            neg = (pv - 4 * x) % pv
            if dbl <= half:
                chosen: Optional[int] = dbl
            elif neg <= half:
                chosen = neg
            else:
                chosen = None
            if chosen is None:
                f3.witnesses.append(PairWitness(x, dbl, None))
            else:
                if not is_qr(chosen):
                    raise ConsistencyError(
                        f"fallback {chosen} for non-residue {x} mod {pv} is not a residue"
                    )
                f3.witnesses.append(PairWitness(x, chosen, chosen))
    families.append(f3)

    f4 = [
        _pair_family(
            "C1_F4",
            (half + (3 << j)) // (6 << j),
            range(3 << j, half + 1, 6 << j),
            range(3 << (j - 1), half, 3 << j),
            is_qr,
            subfamily=j,
        )
        for j in range(1, half.bit_length() + 1)
    ]
    f4_bound_sum = sum(f.claimed_bound for f in f4)
    if f4_bound_sum != b4 or f4_bound_sum != floor_half_series(Fraction(half, 6)):
        raise ConsistencyError("per-j bounds do not sum to floor((4k+1)/6)")
    families.extend(f4)

    f_specials = FamilyReport("C1_SPECIALS", b_specials)
    for s in (4 * k + 1, 4 * k - 3):
        if not is_qr(s):
            raise ConsistencyError(f"special element {s} must be a residue mod {pv}")
        f_specials.witnesses.append(PairWitness(s, pv - s, s))
    families.append(f_specials)

    return _finalize(op, CASE_ONE, families, 2 * k + 1, (pv + 1) // 4)


def construct_case2(p: int | OddPrime, qr_lookup: Optional[QrLookup] = None) -> ConstructionReport:
    """Execute the Case 2 (p = 8k+7) family system and audit it.

    Over A = [1, 4k+3], with 2 a residue, every odd a in A pairs with
    (p-a)/2, which lies in [2k+2, 4k+3] and has the opposite symbol.
    The four families cover odd residue classes mod 8, plus the singleton
    family {2}.
    """
    op = as_prime(p)
    if op.residue_mod_8 != 7 or op.value <= 31:
        raise DomainError(f"Case 2 requires p = 7 mod 8 and p > 31, got {op.value}")
    pv, k = op.value, op.k
    half = 4 * k + 3
    is_qr = qr_lookup if qr_lookup is not None else _qr_predicate(op)

    if not is_qr(2 % pv):
        raise ConsistencyError(f"(2/{pv}) must be +1 when p = 7 mod 8")
    if is_qr(pv - 1):
        raise ConsistencyError(f"(-1/{pv}) must be -1 when p = 3 mod 4")

    b1, b2, b3, b4, b_two = case2_bounds(k)
    # Rule r pairs the odd a = r mod 8 in A with (p-a)/2, stepping down by 4.
    rules = (
        ("C2_F3MOD8", 3, b1),
        ("C2_F7MOD8", 7, b2),
        ("C2_F1MOD8", 1, b3),
        ("C2_F5MOD8", 5, b4),
    )
    families = [
        _pair_family(family_id, bound, range(r, half + 1, 8), range((pv - r) // 2, 0, -4), is_qr)
        for family_id, r, bound in rules
    ]

    f_two = FamilyReport("C2_TWO", b_two)
    f_two.witnesses.append(PairWitness(2, pv - 2, 2))
    families.append(f_two)

    return _finalize(op, CASE_TWO, families, 2 * k + 3, (pv + 1) // 4)


def verify_small_regime(p: int | OddPrime) -> ConstructionReport:
    """Direct verification A(p) > 0 for p = 3 mod 4 with p <= 31.

    The family system assumes p > 31; below that the half interval is
    checked outright, so families are empty and distinct_qr_total is the
    true residue count in [1, (p-1)/2].
    """
    op = as_prime(p)
    if op.value % 4 != 3:
        raise DomainError("construction applies only to p = 3 mod 4")
    if op.value > 31:
        raise DomainError(f"small regime covers p <= 31, got {op.value}")
    rec = half_sum_direct(op)
    threshold = (op.value + 1) // 4
    # For p = 3 mod 4, A(p) <= 0 exactly when the residue count misses the
    # threshold, so that is the reason a violation reports.
    return ConstructionReport(
        p=op.value,
        case=SMALL_REGIME,
        k=op.k,
        families=[],
        required_threshold=threshold,
        claimed_total=0,
        distinct_qr_total=rec.qr_count,
        dedup_ledger=[],
        verdict=VERIFIED if rec.a_value > 0 else BOUND_VIOLATION,
        reason="" if rec.a_value > 0 else f"distinct {rec.qr_count} < threshold {threshold}",
    )


def build_report(p: int | OddPrime, qr_lookup: Optional[QrLookup] = None) -> ConstructionReport:
    """Dispatch to the right constructor for any prime p = 3 mod 4."""
    op = as_prime(p)
    case = classify_case(op)
    if case == SMALL_REGIME:
        return verify_small_regime(op)
    if case == CASE_ONE:
        return construct_case1(op, qr_lookup)
    return construct_case2(op, qr_lookup)
