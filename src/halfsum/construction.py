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

The ratio-pair families of a case run in one pass: their candidate
progressions form one column, the symbols of every pair are read at once
from the residue marks of charsum._qr_marks, and each family's report is a
slice of the shared columns.
First-claim-wins dedup is one stable sort of all witnesses in generation
order. Witnesses, failed pairs and the dedup ledger are read as Rows: the
columns give their lengths, and each read builds only the rows it covers.

Failures are never patched over; they become structured verdicts:

  - BoundViolation: some pair has no residue inside A (or a count bound
    fails with the dedup ledger otherwise clean);
  - DedupAnomaly: all pairs are sound but unsanctioned duplicates were
    observed, so distinct counts may fall short of the claims;
  - Verified: sound pairs, no unsanctioned duplicates, threshold and all
    bounds met.

Case 1 covers p = 8k+3 (where 2 is a non-residue), Case 2 covers p = 8k+7
(where 2 is a residue); primes p <= 31 are verified directly from A(p).

build_report(p) is the one entry point. It classifies p, refuses p above
_CONSTRUCT_LIMIT before any table is built (which bounds the memory of one
audit), reads the residue flags once from charsum._qr_marks, checks (2/p)
and (-1/p) against them, runs the case's families on them and reports
A(p) counted from the same flags.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from typing import NamedTuple, Optional

import numpy as np

from .arith import OddPrime, as_prime
from .charsum import _qr_marks, half_sum_direct
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .floorlemma import floor_half_series

CASE_ONE = "Case1"
CASE_TWO = "Case2"
SMALL_REGIME = "SmallRegime"

VERIFIED = "Verified"
BOUND_VIOLATION = "BoundViolation"
DEDUP_ANOMALY = "DedupAnomaly"

# Primes handled by direct verification instead of the construction.
SMALL_REGIME_PRIMES = (3, 7, 11, 19, 23, 31)

# An audit makes about p/4 pairs and peaks near 88 bytes per pair (traced
# at p = 1000003), so at this limit it stays near 190 MB; construct --json,
# which also builds every witness, peaks near 320 bytes per pair, ~0.7 GB.
# Elements and their doubles stay far below 2^31, so the columns are int32.
_CONSTRUCT_LIMIT = 1 << 23
_INT = np.int32


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


class Rows(Sequence):
    """Read-only rows held as columns: rows(sel) builds, in order, the rows
    that a slice or index array sel picks, and index picks this view's rows
    (all by default). Length and truth value build no row; indexing and
    slicing build only the rows they cover; nothing built is kept."""

    def __init__(self, size: int, rows: Callable, index: Optional[np.ndarray] = None):
        self._size, self._rows, self._index = size, rows, index

    def __len__(self) -> int:
        return self._size if self._index is None else len(self._index)

    def __iter__(self) -> Iterator:
        return iter(self._rows(slice(None) if self._index is None else self._index))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self[key : key + 1 or None][0]  # empty, so IndexError, past either end
        return list(self._rows(key if self._index is None else self._index[key]))


_NO_ROWS = Rows(0, lambda sel: ())


def _build(kind: type, *columns: list) -> Iterator:
    """kind(*row) for each row across the columns, built at C level."""
    return map(tuple.__new__, repeat(kind), zip(*columns))


@dataclass(eq=False)
class FamilyReport:
    """Audit record for one pairing family, held as columns.

    Pair i is (candidates[i], partners[i]) and its witness is chosen[i],
    which is 0 for a pair with no residue in [1, (p-1)/2].
    """

    family_id: str
    claimed_bound: int
    candidates: np.ndarray
    partners: np.ndarray
    chosen: np.ndarray
    subfamily: Optional[int] = None
    distinct_contribution: int = 0

    @property
    def pairs(self) -> int:
        return len(self.chosen)

    @property
    def witnesses(self) -> Rows:
        return Rows(self.pairs, self._witnesses)

    @property
    def failed_pairs(self) -> Rows:
        return Rows(self.pairs, self._witnesses, np.flatnonzero(self.chosen == 0))

    def _witnesses(self, sel) -> Iterator[PairWitness]:
        """PairWitness objects for the pairs sel picks, built at C level."""
        chosen = self.chosen[sel]
        columns = (self.candidates[sel], self.partners[sel], np.where(chosen == 0, None, chosen))
        return _build(PairWitness, *(c.tolist() for c in columns))


@dataclass(eq=False)
class _Ledger:
    """The elements claimed by more than one site, as columns.

    Group g is the element elements[g]. Its claims are the generation
    indices order[head[g] : head[g] + counts[g]], in generation order.
    Generation index i is pair i - starts[f] of family f = family[i].
    """

    families: list[FamilyReport]
    starts: np.ndarray
    family: np.ndarray
    order: np.ndarray
    head: np.ndarray
    counts: np.ndarray
    elements: np.ndarray
    expected: np.ndarray

    def entries(self, sel) -> Iterator[DedupEntry]:
        """DedupEntry objects, site labels included, for the groups sel picks."""
        counts = self.counts[sel]
        offsets = np.cumsum(counts) - counts
        pos = self.order[np.repeat(self.head[sel] - offsets, counts) + np.arange(counts.sum())]
        owner = self.family[pos]
        local = pos - self.starts[owner]
        families = self.families
        labels = iter([_site(families[o], i) for o, i in zip(owner.tolist(), local.tolist())])
        sites = map(tuple, map(islice, repeat(labels), counts.tolist()))
        return _build(DedupEntry, self.elements[sel].tolist(), sites, self.expected[sel].tolist())


@dataclass(eq=False)
class ConstructionReport:
    """Full audit of the construction run for one prime."""

    p: int
    case: str
    k: int
    families: list[FamilyReport]
    required_threshold: int
    claimed_total: int
    distinct_qr_total: int
    # A(p), counted from the residue flags the audit read; not in the JSON.
    a_value: int
    verdict: str
    # For a BoundViolation, the first claim that failed; empty otherwise.
    reason: str
    # Elements claimed by more than one site in ascending order, and those
    # of them that are not the sanctioned overlap.
    dedup_ledger: Rows = field(default=_NO_ROWS, repr=False)
    unexpected_duplicates: Rows = field(default=_NO_ROWS, repr=False)

    @property
    def failed_pairs(self) -> list[PairWitness]:
        return [w for f in self.families for w in f.failed_pairs]

    def to_json_dict(self) -> dict:
        fams = []
        for f in self.families:
            entry: dict = {"id": f.family_id}
            if f.subfamily is not None:
                entry["j"] = f.subfamily
            entry["bound"] = f.claimed_bound
            entry["contributed"] = f.distinct_contribution
            entry["witnesses"] = [list(w) for w in f.witnesses]
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


def _pair_families(
    rules: list[tuple[str, int, int, int, Optional[int]]],
    half: int,
    partner: Callable[[np.ndarray], np.ndarray],
    is_qr: np.ndarray,
) -> list[FamilyReport]:
    """Run every ratio-pair family of a case in one pass, in rule order.

    Rule (family_id, bound, start, step, j) pairs each candidate of the
    progression start, start + step, ... up to half with partner(candidate).
    Exactly one member of each pair must be a residue, and that member is
    the witness. Each progression sets its family's pair count, which must
    equal the family's closed-form floor bound. The families' reports are
    slices of the shared columns.
    """
    progressions = [_progression(start, half + 1, step) for _, _, start, step, _ in rules]
    tags = [fid if j is None else f"{fid}[j={j}]" for fid, _, _, _, j in rules]
    ends = np.cumsum([len(c) for c in progressions])
    cands = np.concatenate(progressions)
    parts = partner(cands)
    cand_qr = is_qr[cands]
    bad = np.flatnonzero(cand_qr == is_qr[parts])
    if bad.size:
        i = bad[0]
        tag = tags[np.searchsorted(ends, i, "right")]
        raise ConsistencyError(f"{tag} pair ({cands[i]}, {parts[i]}): not exactly one residue")
    chosen = np.where(cand_qr, cands, parts)
    reports = []
    for (family_id, bound, _, _, j), tag, c, end in zip(rules, tags, progressions, ends.tolist()):
        if len(c) != bound:
            raise ConsistencyError(f"{tag} pair count disagrees with its floor bound")
        s = slice(end - bound, end)
        reports.append(FamilyReport(family_id, bound, cands[s], parts[s], chosen[s], subfamily=j))
    return reports


def _progression(start: int, stop: int, step: int) -> np.ndarray:
    return np.arange(start, stop, step, dtype=_INT)


def _site(fam: FamilyReport, i: int) -> str:
    """Ledger label of the i-th witness of a family."""
    if fam.family_id == "C1_F4":
        return f"C1_F4[j={fam.subfamily},m={2 * i + 1}]"
    if fam.family_id == "C1_SPECIALS":
        return f"C1_SPECIALS[{fam.candidates[i]}]"
    if fam.family_id == "C2_TWO":
        return "C2_TWO"
    return f"{fam.family_id}[h={i}]"


def _finalize(
    op: OddPrime,
    case: str,
    families: list[FamilyReport],
    claimed_total: int,
    threshold: int,
    a_value: int,
) -> ConstructionReport:
    """Dedup accounting, verdict and reason for an executed family system."""
    if claimed_total != sum(f.claimed_bound for f in families):
        raise ConsistencyError("family bounds do not aggregate to the claimed total")

    # Every witness claims its element, in generation order. A stable sort
    # groups equal elements with their claims still in that order, so each
    # group's head is the first claim, and first claim wins: a family is
    # credited only with elements no earlier family already produced.
    # Sorting element * n + index is that stable sort, and much faster than
    # a stable argsort.
    sizes = [f.pairs for f in families]
    starts = np.cumsum([0] + sizes[:-1])
    # Fewer than 2^8 families: Case 1 has bit_length(4k+1) + 4 < 32 of them.
    family = np.repeat(np.arange(len(families), dtype=np.uint8), sizes)
    chosen = np.concatenate([f.chosen for f in families])
    n = len(chosen)
    keys = chosen.astype(np.int64) * n + np.arange(n)
    keys.sort()
    ranked, order = np.divmod(keys, n)
    head = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    counts = np.diff(head, append=len(ranked))
    # Element 0 stands for the pairs without a residue; it claims nothing.
    first_failed = int(order[0]) if ranked[0] == 0 else None
    if first_failed is not None:
        head, counts = head[1:], counts[1:]
    elements = ranked[head]
    owner = family[order[head]]
    for fam, count in zip(families, np.bincount(owner, minlength=len(families)).tolist()):
        fam.distinct_contribution = count
    distinct = len(elements)

    dup = counts > 1
    expected = np.zeros(int(dup.sum()), bool)
    ledger = _Ledger(families, starts, family, order, head[dup], counts[dup], elements[dup], expected)
    # Case 1 discounts exactly one overlap: the element 4, produced by the
    # first family's pair (8, 4) and by the third family's element 4.
    if case == CASE_ONE:
        g = int(np.searchsorted(ledger.elements, 4))
        if g < len(ledger.elements) and ledger.elements[g] == 4 and ledger.counts[g] == 2:
            owners = family[order[ledger.head[g] : ledger.head[g] + 2]]
            ledger.expected[g] = {families[o].family_id for o in owners.tolist()} == {"C1_F1", "C1_F3"}
    unexpected = Rows(len(ledger.elements), ledger.entries, np.flatnonzero(~ledger.expected))

    # One ladder decides the verdict and, for a violation, its reason.
    short = next((f for f in families if f.distinct_contribution < f.claimed_bound), None)
    verdict, reason = BOUND_VIOLATION, ""
    if first_failed is not None:
        f = family[first_failed]
        fam, i = families[f], first_failed - starts[f]
        reason = (
            f"pair ({fam.candidates[i]}, {fam.partners[i]}) in {fam.family_id}: "
            f"no residue lands in [1, {(op.value - 1) // 2}]"
        )
    elif unexpected:
        verdict = DEDUP_ANOMALY
    elif distinct < threshold:
        reason = f"distinct {distinct} < threshold {threshold}"
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
        distinct_qr_total=distinct,
        a_value=a_value,
        verdict=verdict,
        reason=reason,
        dedup_ledger=Rows(len(ledger.elements), ledger.entries),
        unexpected_duplicates=unexpected,
    )


def _case1_families(pv: int, k: int, is_qr: np.ndarray) -> list[FamilyReport]:
    """The Case 1 (p = 8k+3) family system, run on the residue flags is_qr.

    Families over A = [1, 4k+1], with 2 a non-residue:

      C1_F1       pairs 6h+2 with 3h+1 (ratio 2, exactly one is a residue)
      C1_F2       pairs 12h+10 with 6h+5
      C1_F3       elements 12h+4; if x is a non-residue, falls back to 2x,
                  then to p-4x reduced mod p, whichever lands in A
      C1_F4       pairs 3*2^j*m with 3*2^(j-1)*m for odd m, one subfamily
                  per j up to the bit length of 4k+1
      C1_SPECIALS (p-1)/2 = 4k+1 and (p-9)/2 = 4k-3, residues outright
    """
    half = 4 * k + 1
    b1, b2, b3, b4, b_specials = case1_bounds(k)
    f4 = [
        ("C1_F4", (half + (3 << j)) // (6 << j), 3 << j, 6 << j, j)
        for j in range(1, half.bit_length() + 1)
    ]
    f4_bound_sum = sum(rule[1] for rule in f4)
    if f4_bound_sum != b4 or f4_bound_sum != floor_half_series(Fraction(half, 6)):
        raise ConsistencyError("per-j bounds do not sum to floor((4k+1)/6)")
    rules = [("C1_F1", b1, 2, 6, None), ("C1_F2", b2, 10, 12, None)] + f4
    pairs = _pair_families(rules, half, lambda c: c // 2, is_qr)

    # C1_F3's bound is one below its element count: the element 4 (h = 0)
    # always duplicates C1_F1's witness from the pair (8, 4).
    x = _progression(4, half + 1, 12)
    x_qr = is_qr[x]
    dbl = 2 * x
    neg = (pv - 4 * x) % pv
    fallback = np.where(dbl <= half, dbl, np.where(neg <= half, neg, 0))
    bad = np.flatnonzero(~x_qr & (fallback != 0) & ~is_qr[fallback])
    if bad.size:
        i = bad[0]
        raise ConsistencyError(
            f"fallback {fallback[i]} for non-residue {x[i]} mod {pv} is not a residue"
        )
    f3 = FamilyReport(
        "C1_F3",
        b3,
        x,
        np.where(x_qr | (fallback == 0), dbl, fallback),
        np.where(x_qr, x, fallback),
    )

    specials = np.array([4 * k + 1, 4 * k - 3], dtype=_INT)
    missing = specials[~is_qr[specials]]
    if missing.size:
        raise ConsistencyError(f"special element {missing[0]} must be a residue mod {pv}")
    families = pairs[:2] + [f3] + pairs[2:]
    families.append(FamilyReport("C1_SPECIALS", b_specials, specials, pv - specials, specials))
    return families


def _case2_families(pv: int, k: int, is_qr: np.ndarray) -> list[FamilyReport]:
    """The Case 2 (p = 8k+7) family system, run on the residue flags is_qr.

    Over A = [1, 4k+3], with 2 a residue, every odd a in A pairs with
    (p-a)/2, which lies in [2k+2, 4k+3] and has the opposite symbol.
    The four families cover odd residue classes mod 8, plus the singleton
    family {2}.
    """
    b1, b2, b3, b4, b_two = case2_bounds(k)
    # Rule r pairs the odd a = r mod 8 in A with (p-a)/2.
    rules = [
        ("C2_F3MOD8", b1, 3, 8, None),
        ("C2_F7MOD8", b2, 7, 8, None),
        ("C2_F1MOD8", b3, 1, 8, None),
        ("C2_F5MOD8", b4, 5, 8, None),
    ]
    families = _pair_families(rules, 4 * k + 3, lambda c: (pv - c) // 2, is_qr)
    two = np.array([2], dtype=_INT)
    families.append(FamilyReport("C2_TWO", b_two, two, pv - two, two))
    return families


def _small_regime(op: OddPrime) -> ConstructionReport:
    """Direct verification A(p) > 0 for p = 3 mod 4 with p <= 31.

    The family system assumes p > 31; below that the half interval is
    checked outright, symbol by symbol, with no residue table, so families
    are empty and distinct_qr_total is the true residue count in
    [1, (p-1)/2].
    """
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
        a_value=rec.a_value,
        verdict=VERIFIED if rec.a_value > 0 else BOUND_VIOLATION,
        reason="" if rec.a_value > 0 else f"distinct {rec.qr_count} < threshold {threshold}",
    )


def build_report(p: int | OddPrime) -> ConstructionReport:
    """Run and audit the construction for any prime p = 3 mod 4.

    This is the audit's one entry point (see the module docstring). Raises
    DomainError for any other p, ResourceLimitError above _CONSTRUCT_LIMIT
    before any table is built, and ConsistencyError when the residue flags
    contradict (2/p), (-1/p) or a family's rule.
    """
    op = as_prime(p)
    case = classify_case(op)
    if case == SMALL_REGIME:
        return _small_regime(op)
    pv, k = op.value, op.k
    if pv > _CONSTRUCT_LIMIT:
        raise ResourceLimitError(f"p = {pv} exceeds the construction limit {_CONSTRUCT_LIMIT}")
    is_qr = _qr_marks(pv).view(bool)

    if case == CASE_ONE and is_qr[2]:
        raise ConsistencyError(f"(2/{pv}) must be -1 when p = 3 mod 8")
    if case == CASE_TWO and not is_qr[2]:
        raise ConsistencyError(f"(2/{pv}) must be +1 when p = 7 mod 8")
    if is_qr[pv - 1]:
        raise ConsistencyError(f"(-1/{pv}) must be -1 when p = 3 mod 4")

    if case == CASE_ONE:
        families, claimed_total = _case1_families(pv, k, is_qr), 2 * k + 1
    else:
        families, claimed_total = _case2_families(pv, k, is_qr), 2 * k + 3
    half = (pv - 1) // 2
    a_value = 2 * int(np.count_nonzero(is_qr[1 : half + 1])) - half
    return _finalize(op, case, families, claimed_total, (pv + 1) // 4, a_value)
