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

A prime's audit is one record, ConstructionReport: its families run as one
witness column in generation order, built from the case's rule table, and
family f owns rows starts[f] up to starts[f + 1]. When built, the report
counts each element's claims in that column and decides its verdict and
reason from those counts alone. The first claim of each element is found
when its families are first read; they, its failed pairs, and its witnesses
and ledger entries, which are Rows, are built only when read.

Failures are never patched over; they become structured verdicts:

  - BoundViolation: some pair has no residue inside A (or, with the dedup
    ledger otherwise clean, the distinct count misses (p+1)/4 or a family
    misses its bound);
  - DedupAnomaly: all pairs are sound but unsanctioned duplicates were
    observed, so distinct counts may fall short of the claims;
  - Verified: sound pairs, no unsanctioned duplicates, threshold and all
    bounds met.

Case 1 covers p = 8k+3 (where 2 is a non-residue), Case 2 covers p = 8k+7
(where 2 is a residue). Primes p <= 31 run no family: their residues in A
are counted directly and go up the same ladder, which the report holds for
every prime.

build_report(p) is the one entry point. It classifies p, refuses p above
_CONSTRUCT_LIMIT before any table is built (which bounds the memory of one
audit), reads the residue flags once from charsum._qr_marks, checks (2/p)
and (-1/p) against them, reads every symbol of the case's families from
them at once and reports A(p) counted from the same flags.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
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

# An audit makes about p/4 pairs and peaks near 40 bytes per pair (traced
# at p = 1000003), so at this limit it stays near 90 MB; construct --json,
# which also builds one family's witnesses at a time, near 175, ~0.4 GB.
# Elements and their doubles stay far below 2^31, so the columns are int32.
_CONSTRUCT_LIMIT = 1 << 23
_INT = np.int32
_SLICE = 1 << 14  # rows built per call when a Rows view is iterated


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
    slicing build only the rows they cover, iterating _SLICE rows at a time;
    nothing built is kept."""

    def __init__(self, size: int, rows: Callable, index: Optional[np.ndarray] = None):
        self._size, self._rows, self._index = size, rows, index

    def __len__(self) -> int:
        return self._size if self._index is None else len(self._index)

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self[a : a + _SLICE] for a in range(0, len(self), _SLICE))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self[key : key + 1 or None][0]  # empty, so IndexError, past either end
        return list(self._rows(key if self._index is None else self._index[key]))


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


class _Rule(NamedTuple):
    """A family: elements range(start, stop, step), a bound, C1_F4's j.

    A ratio family's rows are pairs that each hold exactly one residue, and
    there are exactly bound of them; the other families claim elements
    outright or by C1_F3's fallback.
    """

    family_id: str
    bound: int
    start: int
    stop: int
    step: int
    j: Optional[int] = None
    ratio: bool = True

    @property
    def tag(self) -> str:
        return self.family_id if self.j is None else f"{self.family_id}[j={self.j}]"


@dataclass(eq=False)
class ConstructionReport:
    """Full audit of the construction run for one prime, from its executed
    family system: one row per pair in generation order.

    Row i pairs candidates[i] with partners[i]; its witness chosen[i] is 0
    if no residue lies in [1, (p-1)/2]. Family f, under rules[f], owns rows
    starts[f] up to starts[f + 1], and starts ends with the row count. When
    built, the report counts each element's claims and decides its verdict
    and, for a BoundViolation, the first claim that failed as reason.
    distinct_qr_total is the count of distinct witnesses unless given. Its
    families and failed pairs are built when first read.
    """

    p: int
    case: str
    k: int
    required_threshold: int
    claimed_total: int
    # A(p), counted from the residue flags the audit read; not in the JSON.
    a_value: int
    rules: list[_Rule] = field(repr=False)
    starts: list[int] = field(repr=False)
    candidates: np.ndarray = field(repr=False)
    partners: np.ndarray = field(repr=False)
    chosen: np.ndarray = field(repr=False)
    distinct_qr_total: Optional[int] = None
    verdict: str = field(init=False)
    reason: str = field(init=False)
    # The ledger's entries other than the sanctioned overlap, counted once.
    unexpected_count: int = field(init=False)

    def __post_init__(self) -> None:
        rules = self.rules
        if self.claimed_total != sum(rule.bound for rule in rules):
            raise ConsistencyError("family bounds do not aggregate to the claimed total")
        # Every witness claims its element, and first claim wins: a family is
        # credited only with elements no earlier family produced. The verdict
        # needs only how often each element is claimed; element 0 stands for
        # the pairs without a residue and claims nothing.
        claims = np.bincount(self.chosen, minlength=1)
        # _ledger lists the elements of several claims, ascending. Case 1
        # discounts exactly one overlap among them, if _sanctioned: the element
        # 4, claimed first by the first family's pair (8, 4), then by the third
        # family's element 4.
        self._ledger = np.flatnonzero(claims[1:] > 1).astype(_INT) + 1
        owners = [bisect(self.starts, i) - 1 for i in np.flatnonzero(self.chosen == 4).tolist()]
        self._sanctioned = [rules[f].family_id for f in owners] == ["C1_F1", "C1_F3"]
        self.unexpected_count = len(self._ledger) - self._sanctioned
        if self.distinct_qr_total is None:
            self.distinct_qr_total = int(np.count_nonzero(claims[1:]))

        # One ladder decides the verdict and, for a violation, its reason.
        distinct, threshold = self.distinct_qr_total, self.required_threshold
        self.verdict, self.reason = BOUND_VIOLATION, ""
        if claims[0]:
            i = int(self.chosen.argmin())  # the first row whose witness is 0
            pair = f"({self.candidates[i]}, {self.partners[i]})"
            self.reason = f"pair {pair} in {rules[bisect(self.starts, i) - 1].family_id}: "
            self.reason += f"no residue lands in [1, {(self.p - 1) // 2}]"
        elif self.unexpected_count:
            self.verdict = DEDUP_ANOMALY
        elif distinct < threshold:
            self.reason = f"distinct {distinct} < threshold {threshold}"
        elif (short := np.flatnonzero(self._contributions < [r.bound for r in rules])).size:
            rule, contributed = rules[short[0]], self._contributions[short[0]]
            self.reason = f"family {rule.family_id} contributed {contributed} < bound {rule.bound}"
        else:
            self.verdict = VERIFIED

    @cached_property
    def _contributions(self) -> np.ndarray:
        """Distinct elements per family: an element's first claim, its least row, owns it."""
        rows = np.arange(len(self.chosen), dtype=_INT)
        first = np.full((self.p + 1) // 2, len(rows), _INT)
        np.minimum.at(first, self.chosen, rows)
        first[0] = -1  # element 0 claims nothing
        owns = first.take(self.chosen) == rows
        return np.array([np.count_nonzero(owns[a:b]) for a, b in zip(self.starts, self.starts[1:])])

    @cached_property
    def families(self) -> list[FamilyReport]:
        """A FamilyReport per rule, each a slice of the shared columns."""
        bounds = zip(self.starts, self.starts[1:])
        slices = ([c[a:b] for c in (self.candidates, self.partners, self.chosen)] for a, b in bounds)
        made = zip(self.rules, slices, self._contributions.tolist())
        return [FamilyReport(r.family_id, r.bound, *c, r.j, n) for r, c, n in made]

    @cached_property
    def failed_pairs(self) -> list[PairWitness]:
        return [w for f in self.families for w in f.failed_pairs]

    # The two ledger views are not cached: a view holds self._entries, and a
    # report that held it would keep itself alive until the cyclic GC ran.
    @property
    def dedup_ledger(self) -> Rows:
        """The elements claimed by more than one site, in ascending order."""
        return Rows(len(self._ledger), self._entries)

    @property
    def unexpected_duplicates(self) -> Rows:
        """The ledger's entries other than the sanctioned overlap."""
        others = np.flatnonzero(self._ledger != 4) if self._sanctioned else None
        return Rows(len(self._ledger), self._entries, others)

    def _entries(self, sel) -> Iterator[DedupEntry]:
        """DedupEntry objects, site labels included, for the ledger elements sel picks."""
        picked = self._ledger[sel]
        mark = np.zeros((self.p + 1) // 2, bool)
        mark[picked] = True
        rows = np.flatnonzero(mark.take(self.chosen))
        # Each picked element's claims in row order, the elements in pick order.
        order = np.argsort(picked)
        place = order[np.searchsorted(picked, self.chosen.take(rows), sorter=order)]
        rows = rows[np.argsort(place, kind="stable")]
        counts = np.bincount(place, minlength=len(picked))
        family = np.searchsorted(self.starts, rows, "right") - 1
        columns = (family.tolist(), rows.tolist(), self.candidates.take(rows).tolist())
        labels = iter([_site(self.rules[f], i - self.starts[f], c) for f, i, c in zip(*columns)])
        sites = map(tuple, map(islice, repeat(labels), counts.tolist()))
        return _build(DedupEntry, picked.tolist(), sites, ((picked == 4) & self._sanctioned).tolist())

    def to_json_dict(self) -> dict:
        fams = []
        for f in self.families:
            entry: dict = {"id": f.family_id}
            if f.subfamily is not None:
                entry["j"] = f.subfamily
            entry["bound"] = f.claimed_bound
            entry["contributed"] = f.distinct_contribution
            # A view: json.dump(..., default=list) builds one family's rows at a time.
            entry["witnesses"] = f.witnesses
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


def _column(rules: list[_Rule]) -> tuple[np.ndarray, list[int]]:
    """Every rule's elements in rule order as one column, and where each
    family's rows start, the row count last."""
    runs = [np.arange(rule.start, rule.stop, rule.step, dtype=_INT) for rule in rules]
    return np.concatenate(runs), list(accumulate(map(len, runs), initial=0))


def _choose(rules, starts, cands, cand_qr, parts, is_qr) -> tuple[np.ndarray, bool]:
    """The witness column: in each row, the member of the pair that is a residue.

    The first ratio pair without exactly one residue, then the first ratio
    family whose pair count is not its closed-form floor bound, raises
    ConsistencyError. Also returns whether any row has two residues or none.
    """
    same = cand_qr == is_qr.take(parts)
    other = bool(same.any())
    for i in np.flatnonzero(same).tolist() if other else ():
        rule = rules[bisect(starts, i) - 1]
        if rule.ratio:
            pair = f"({cands[i]}, {parts[i]})"
            raise ConsistencyError(f"{rule.tag} pair {pair}: not exactly one residue")
    for rule, start, stop in zip(rules, starts, starts[1:]):
        if rule.ratio and stop - start != rule.bound:
            raise ConsistencyError(f"{rule.tag} pair count disagrees with its floor bound")
    return np.where(cand_qr, cands, parts), other


def _site(rule: _Rule, i: int, candidate: int) -> str:
    """Ledger label of the i-th witness of a family, whose candidate is given."""
    if rule.family_id == "C1_F4":
        return f"C1_F4[j={rule.j},m={2 * i + 1}]"
    if rule.family_id == "C1_SPECIALS":
        return f"C1_SPECIALS[{candidate}]"
    if rule.family_id == "C2_TWO":
        return "C2_TWO"
    return f"{rule.family_id}[h={i}]"


def _case1_column(pv: int, k: int, is_qr: np.ndarray) -> tuple:
    """The Case 1 (p = 8k+3) family system's columns, run on the residue flags is_qr.

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
        _Rule("C1_F4", (half + (3 << j)) // (6 << j), 3 << j, half + 1, 6 << j, j)
        for j in range(1, half.bit_length() + 1)
    ]
    f4_bound_sum = sum(rule.bound for rule in f4)
    if f4_bound_sum != b4 or f4_bound_sum != floor_half_series(Fraction(half, 6)):
        raise ConsistencyError("per-j bounds do not sum to floor((4k+1)/6)")
    rules = [
        _Rule("C1_F1", b1, 2, half + 1, 6),
        _Rule("C1_F2", b2, 10, half + 1, 12),
        # C1_F3's bound is one below its element count: the element 4 (h = 0)
        # always duplicates C1_F1's witness from the pair (8, 4).
        _Rule("C1_F3", b3, 4, half + 1, 12, ratio=False),
        *f4,
        _Rule("C1_SPECIALS", b_specials, half, half - 5, -4, ratio=False),
    ]
    cands, starts = _column(rules)
    cand_qr = is_qr.take(cands)
    parts = cands >> 1
    # C1_F3 is rules[2]; C1_SPECIALS, the last rule, owns the last two rows.
    f3_rows, special_rows = slice(starts[2], starts[3]), slice(starts[-2], None)
    x, x_qr = cands[f3_rows], cand_qr[f3_rows]
    dbl = 2 * x
    neg = (pv - 4 * x) % pv
    fallback = np.where(dbl <= half, dbl, np.where(neg <= half, neg, 0))
    parts[f3_rows] = np.where(x_qr | (fallback == 0), dbl, fallback)
    parts[special_rows] = pv - cands[special_rows]
    chosen, other = _choose(rules, starts, cands, cand_qr, parts, is_qr)
    # A C1_F3 row whose fallback is not a residue holds two non-residues.
    wrong = np.flatnonzero(~x_qr & (fallback != 0) & ~is_qr[fallback]) if other else ()
    if len(wrong):
        i = wrong[0]
        message = f"fallback {fallback[i]} for non-residue {x[i]} mod {pv} is not a residue"
        raise ConsistencyError(message)
    chosen[f3_rows] = np.where(x_qr, x, fallback)
    for special in (half, half - 4):
        if not is_qr[special]:
            raise ConsistencyError(f"special element {special} must be a residue mod {pv}")
    return rules, starts, cands, parts, chosen


def _case2_column(pv: int, k: int, is_qr: np.ndarray) -> tuple:
    """The Case 2 (p = 8k+7) family system's columns, run on the residue flags is_qr.

    Over A = [1, 4k+3], with 2 a residue, every odd a in A pairs with
    (p-a)/2, which lies in [2k+2, 4k+3] and has the opposite symbol.
    The four families cover odd residue classes mod 8, plus the singleton
    family {2}.
    """
    half = 4 * k + 3
    b1, b2, b3, b4, b_two = case2_bounds(k)
    # Rule r pairs the odd a = r mod 8 in A with (p-a)/2.
    rules = [
        _Rule("C2_F3MOD8", b1, 3, half + 1, 8),
        _Rule("C2_F7MOD8", b2, 7, half + 1, 8),
        _Rule("C2_F1MOD8", b3, 1, half + 1, 8),
        _Rule("C2_F5MOD8", b4, 5, half + 1, 8),
        _Rule("C2_TWO", b_two, 2, 3, 1, ratio=False),
    ]
    cands, starts = _column(rules)
    parts = (pv - cands) >> 1
    parts[starts[-2] :] = pv - 2  # C2_TWO, the last rule, owns the last row
    chosen, _ = _choose(rules, starts, cands, is_qr.take(cands), parts, is_qr)
    return rules, starts, cands, parts, chosen


def build_report(p: int | OddPrime) -> ConstructionReport:
    """Run and audit the construction for any prime p = 3 mod 4.

    This is the audit's one entry point (see the module docstring). Raises
    DomainError for any other p, ResourceLimitError above _CONSTRUCT_LIMIT
    before any table is built, and ConsistencyError when the residue flags
    contradict (2/p), (-1/p) or a family's rule.
    """
    op = as_prime(p)
    case = classify_case(op)
    pv, k = op.value, op.k
    threshold = (pv + 1) // 4
    if case == SMALL_REGIME:
        # No family, no table: for p = 3 mod 4 the direct residue count
        # misses the threshold exactly when A(p) <= 0, and the ladder says so.
        rec = half_sum_direct(op)
        none = np.zeros(0, _INT)
        columns = [], [0], none, none, none
        return ConstructionReport(pv, case, k, threshold, 0, rec.a_value, *columns, rec.qr_count)
    if pv > _CONSTRUCT_LIMIT:
        raise ResourceLimitError(f"p = {pv} exceeds the construction limit {_CONSTRUCT_LIMIT}")
    is_qr = _qr_marks(pv).view(bool)

    if case == CASE_ONE and is_qr[2]:
        raise ConsistencyError(f"(2/{pv}) must be -1 when p = 3 mod 8")
    if case == CASE_TWO and not is_qr[2]:
        raise ConsistencyError(f"(2/{pv}) must be +1 when p = 7 mod 8")
    if is_qr[pv - 1]:
        raise ConsistencyError(f"(-1/{pv}) must be -1 when p = 3 mod 4")

    run, claimed_total = (_case1_column, 2 * k + 1) if case == CASE_ONE else (_case2_column, 2 * k + 3)
    half = (pv - 1) // 2
    a_value = 2 * int(np.count_nonzero(is_qr[1 : half + 1])) - half
    # The report is built once the case's temporaries are freed: its claim count is the audit's peak.
    return ConstructionReport(pv, case, k, threshold, claimed_total, a_value, *run(pv, k, is_qr))
