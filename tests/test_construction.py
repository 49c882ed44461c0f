"""Tests for the constructive pairing audit engine.

Expected values marked as frozen were computed with the brute-force
simulator in oracles.py before the engine existed. The headline facts they
encode: the pairing rules themselves are sound for small primes (every
pair contains a residue, usually inside the half interval), but chosen
witnesses collide across families at every audited prime above 31, so
distinct counts fall short of the claimed totals and verdicts come out
DedupAnomaly rather than Verified. The first outright pair failure
(no residue of the pair inside the half interval) occurs at p = 107.
"""

import gc
import hashlib
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from halfsum.charsum import HalfSumRecord, half_sum_sieve
from halfsum.arith import is_prime, legendre_euler
from halfsum import construction
from halfsum.construction import (
    BOUND_VIOLATION,
    CASE_ONE,
    CASE_TWO,
    DEDUP_ANOMALY,
    ConstructionReport,
    FamilyReport,
    SMALL_REGIME,
    VERIFIED,
    build_report,
    case1_bounds,
    case2_bounds,
    classify_case,
)
from halfsum.errors import ConsistencyError, DomainError, ResourceLimitError


class TestClassify:
    def test_examples(self):
        assert classify_case(43) == CASE_ONE
        assert classify_case(47) == CASE_TWO
        assert classify_case(7) == SMALL_REGIME

    def test_boundary(self):
        assert classify_case(31) == SMALL_REGIME
        assert classify_case(43) == CASE_ONE

    def test_one_mod_four_rejected(self):
        for p in (5, 13, 17, 29, 101):
            with pytest.raises(DomainError):
                classify_case(p)

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            classify_case(35)


class TestBounds:
    def test_case1_examples(self):
        assert case1_bounds(5) == (4, 1, 1, 3, 2)
        assert case1_bounds(4) == (3, 1, 1, 2, 2)
        assert case1_bounds(6) == (4, 2, 1, 4, 2)

    def test_case2_examples(self):
        assert case2_bounds(5) == (3, 3, 3, 3, 1)
        assert case2_bounds(3) == (2, 2, 2, 2, 1)
        assert case2_bounds(4) == (3, 2, 3, 2, 1)

    def test_sum_identities_small(self):
        for k in range(0, 20_000):
            assert sum(case1_bounds(k)) == 2 * k + 1
            assert sum(case2_bounds(k)) == 2 * k + 3

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            case1_bounds(-1)
        with pytest.raises(DomainError):
            case2_bounds(-1)


class TestSmallRegime:
    def test_all_six_primes_verified(self):
        for p in oracles.primes_trial(3, 31, 3, 4):
            report = build_report(p)
            assert report.case == SMALL_REGIME
            assert report.verdict == VERIFIED
            assert report.families == []
            assert report.claimed_total == 0
            assert report.distinct_qr_total > 0

    def test_examples(self):
        assert build_report(3).distinct_qr_total == 1
        assert build_report(23).distinct_qr_total == 7
        r = build_report(31)
        assert r.distinct_qr_total == 9
        assert half_sum_sieve(31).a_value == 3

    def test_count_below_threshold_is_a_violation(self, monkeypatch):
        # No small prime misses the threshold, so a direct count of 4 of the
        # 9 elements of [1, 9] is injected at p = 19, where (p+1)/4 = 5.
        monkeypatch.setattr(
            construction, "half_sum_direct", lambda op: HalfSumRecord(op.value, 4, 5, -1, "direct")
        )
        report = build_report(19)
        assert (report.case, report.a_value, report.distinct_qr_total) == (SMALL_REGIME, -1, 4)
        assert (report.verdict, report.reason) == (BOUND_VIOLATION, "distinct 4 < threshold 5")
        assert report.families == [] and not report.dedup_ledger

    def test_verified_implies_positive_sum(self):
        for p in oracles.primes_trial(3, 31, 3, 4):
            if build_report(p).verdict == VERIFIED:
                assert half_sum_sieve(p).a_value > 0


class TestRouting:
    def test_build_report_dispatch(self):
        assert build_report(43).case == CASE_ONE
        assert build_report(47).case == CASE_TWO
        assert build_report(19).case == SMALL_REGIME

    def test_refusals_and_small_regime_build_no_table(self, monkeypatch):
        def refuse(pv):
            raise AssertionError("a residue table was built")

        monkeypatch.setattr(construction, "_qr_marks", refuse)
        monkeypatch.setattr(construction, "_CONSTRUCT_LIMIT", 100)
        assert build_report(31).verdict == VERIFIED
        with pytest.raises(DomainError):
            build_report(13)
        with pytest.raises(ResourceLimitError, match="^p = 107 exceeds the construction limit 100$"):
            build_report(107)

    @pytest.mark.parametrize("p, case, sanctioned", [(8388587, CASE_ONE, 1), (8388439, CASE_TWO, 0)])
    def test_audit_at_the_construction_limit(self, p, case, sanctioned):
        # The largest Case 1 and Case 2 primes below the limit: ~0.3 s and
        # ~135 MB peak process RSS each on a 2-vCPU x86 host.
        limit = construction._CONSTRUCT_LIMIT
        assert p < limit and not any(map(is_prime, range(p + 8, limit, 8)))
        report = build_report(p)
        assert report.case == case
        assert report.a_value == half_sum_sieve(p).a_value
        assert sum(f.distinct_contribution for f in report.families) == report.distinct_qr_total
        assert len(report.dedup_ledger) == len(report.unexpected_duplicates) + sanctioned


# Frozen from the brute-force simulator: p -> (claimed_total, threshold,
# distinct_qr_total, unsanctioned duplicate count, verdict).
FROZEN = {
    43: (11, 11, 9, 2, DEDUP_ANOMALY),
    47: (13, 12, 11, 2, DEDUP_ANOMALY),
    59: (15, 15, 14, 1, DEDUP_ANOMALY),
    67: (17, 17, 13, 4, DEDUP_ANOMALY),
    71: (19, 18, 15, 4, DEDUP_ANOMALY),
    79: (21, 20, 17, 4, DEDUP_ANOMALY),
    83: (21, 21, 18, 3, DEDUP_ANOMALY),
    103: (27, 26, 23, 4, DEDUP_ANOMALY),
    107: (27, 27, 23, 3, BOUND_VIOLATION),
    127: (33, 32, 27, 6, DEDUP_ANOMALY),
    131: (33, 33, 29, 3, BOUND_VIOLATION),
}


class TestFrozenValues:
    def test_reports_match_frozen_oracle(self):
        for p, (claimed, threshold, distinct, dup_count, verdict) in FROZEN.items():
            report = build_report(p)
            assert report.claimed_total == claimed, p
            assert report.required_threshold == threshold, p
            assert report.distinct_qr_total == distinct, p
            assert len(report.unexpected_duplicates) == dup_count, p
            assert report.verdict == verdict, p

    def test_first_pair_failures(self):
        # No pair fails below 107; at 107 and 131 exactly one C1_F3 pair does.
        for p in oracles.primes_trial(32, 106, 3, 4):
            assert not build_report(p).failed_pairs, p
        for p, candidate in ((107, 28), (131, 40)):
            report = build_report(p)
            failed = [(f.family_id, w.candidate) for f in report.families for w in f.failed_pairs]
            assert failed == [("C1_F3", candidate)], p

    def test_case1_bounds_example_p59(self):
        report = build_report(59)
        assert case1_bounds(7) == (5, 2, 2, 4, 2)
        assert report.claimed_total == 15

    def test_case2_bounds_example_p71(self):
        report = build_report(71)
        assert case2_bounds(8) == (5, 4, 5, 4, 1)
        assert report.claimed_total == 19


def _engine_claims(report):
    """Rebuild (site, element) claims from a report, in generation order."""
    claims = []
    fails = []
    for fam in report.families:
        for i, w in enumerate(fam.witnesses):
            if fam.family_id == "C1_F4":
                site = ("C1_F4", (fam.subfamily, 2 * i + 1))
            elif fam.family_id == "C1_SPECIALS":
                site = ("C1_SPECIALS", w.candidate)
            elif fam.family_id == "C2_TWO":
                site = ("C2_TWO", 0)
            else:
                site = (fam.family_id, i)
            if w.chosen_qr is None:
                fails.append((site, w.candidate))
            else:
                claims.append((site, w.chosen_qr))
    return claims, fails


def _assert_matches_simulator(p):
    sim = oracles.construction_sim(p)
    report = build_report(p)
    claims, fails = _engine_claims(report)
    assert claims == sim["claims"], p
    assert fails == sim["fails"], p
    assert report.distinct_qr_total == sim["distinct"], p
    assert report.claimed_total == sim["claimed"], p
    assert report.required_threshold == sim["threshold"], p
    engine_dups = {
        e.element: len(e.sites) for e in report.unexpected_duplicates
    }
    sim_dups = {e: len(s) for e, s in sim["unsanctioned_dups"].items()}
    assert engine_dups == sim_dups, p
    # First claim wins: each element is owned by the family of its first
    # claim in generation order, keyed by (family_id, subfamily).
    first = {}
    for (family_id, where), element in sim["claims"]:
        first.setdefault(element, (family_id, where[0] if family_id == "C1_F4" else None))
    owned = {(f.family_id, f.subfamily): f.distinct_contribution for f in report.families}
    assert {key: n for key, n in owned.items() if n} == Counter(first.values()), p
    assert any(e.expected for e in report.dedup_ledger) == sim["sanctioned_overlap"], p
    return report


class TestOracleEquivalence:
    def test_engine_matches_simulator(self, primes_3mod4_to_1500):
        for p in primes_3mod4_to_1500:
            if p > 31:
                _assert_matches_simulator(p)

    # Case 1 and Case 2 primes near 2*10^4 and 10^5, where each ledger holds
    # over a thousand entries. Every Case 1 prime here is a BoundViolation
    # with C1_F3 pairs that have no residue in the half interval.
    @pytest.mark.parametrize("p", [20011, 20023, 20047, 20051, 99871, 99907, 99971, 99991])
    def test_engine_matches_simulator_large(self, p):
        report = _assert_matches_simulator(p)
        assert len(report.unexpected_duplicates) > 1000
        if report.case == CASE_ONE:
            assert report.verdict == BOUND_VIOLATION
            assert {f.family_id for f in report.families if f.failed_pairs} == {"C1_F3"}


@pytest.fixture(scope="module")
def reports(primes_3mod4_to_1500):
    return [build_report(p) for p in primes_3mod4_to_1500 if p > 31]


class TestStructuralInvariants:
    def test_witnesses_symbol_verified(self, reports):
        for report in reports:
            half = (report.p - 1) // 2
            for fam in report.families:
                for w in fam.witnesses:
                    cand_qr = legendre_euler(w.candidate, report.p) == 1
                    part_qr = legendre_euler(w.partner, report.p) == 1
                    assert cand_qr != part_qr, (report.p, w)
                    if w.chosen_qr is not None:
                        assert legendre_euler(w.chosen_qr, report.p) == 1
                        assert 1 <= w.chosen_qr <= half

    def test_distinct_total_bounded_by_true_count(self, reports):
        for report in reports:
            assert report.distinct_qr_total <= half_sum_sieve(report.p).qr_count

    def test_claimed_total_aggregates_family_bounds(self, reports):
        for report in reports:
            assert report.claimed_total == sum(
                f.claimed_bound for f in report.families
            )
            expected = 2 * report.k + (1 if report.case == CASE_ONE else 3)
            assert report.claimed_total == expected

    def test_contributions_sum_to_distinct_total(self, reports):
        for report in reports:
            assert (
                sum(f.distinct_contribution for f in report.families)
                == report.distinct_qr_total
            )

    def test_sanctioned_overlap_in_every_case1_report(self, reports):
        for report in reports:
            expected_entries = [e for e in report.dedup_ledger if e.expected]
            if report.case == CASE_ONE:
                assert len(expected_entries) == 1
                entry = expected_entries[0]
                assert entry.element == 4
                assert {s.split("[")[0] for s in entry.sites} == {"C1_F1", "C1_F3"}
            else:
                assert expected_entries == []

    def test_verdict_policy(self, reports):
        for report in reports:
            if report.failed_pairs:
                assert report.verdict == BOUND_VIOLATION
            elif report.unexpected_duplicates:
                assert report.verdict == DEDUP_ANOMALY
            else:
                assert report.verdict == VERIFIED
                assert report.distinct_qr_total >= report.required_threshold
                assert all(f.distinct_contribution >= f.claimed_bound for f in report.families)

    def test_a_value_matches_brute(self, reports):
        # Every p = 3 mod 4 up to 1500: the small regime and both cases.
        for report in [build_report(p) for p in oracles.primes_trial(3, 31, 3, 4)] + reports:
            assert report.a_value == oracles.half_sum_brute(report.p), report.p

    def test_reason_only_for_violations(self, reports):
        for report in reports:
            assert bool(report.reason) == (report.verdict == BOUND_VIOLATION), report.p
        assert build_report(107).reason == "pair (28, 56) in C1_F3: no residue lands in [1, 53]"
        assert all(not build_report(p).reason for p in (7, 11, 19, 23, 31))

    def test_family_order_and_ids(self):
        r43 = build_report(43)
        ids = [f.family_id for f in r43.families]
        assert ids[:3] == ["C1_F1", "C1_F2", "C1_F3"]
        assert ids[-1] == "C1_SPECIALS"
        assert all(i == "C1_F4" for i in ids[3:-1])
        subs = [f.subfamily for f in r43.families if f.family_id == "C1_F4"]
        assert subs == list(range(1, len(subs) + 1))
        r47 = build_report(47)
        assert [f.family_id for f in r47.families] == [
            "C2_F3MOD8",
            "C2_F7MOD8",
            "C2_F1MOD8",
            "C2_F5MOD8",
            "C2_TWO",
        ]

    def test_json_dict_schema(self):
        d = build_report(43).to_json_dict()
        assert d["schema"] == 1
        assert set(d) == {
            "schema",
            "p",
            "case",
            "claimed_total",
            "threshold",
            "distinct_total",
            "families",
            "dedup",
            "verdict",
        }
        fam = d["families"][0]
        assert set(fam) == {"id", "bound", "contributed", "witnesses"}
        assert all(len(w) == 3 for w in fam["witnesses"])
        j_fams = [f for f in d["families"] if f["id"] == "C1_F4"]
        assert all("j" in f for f in j_fams)
        failed = build_report(107).to_json_dict()
        f3 = next(f for f in failed["families"] if f["id"] == "C1_F3")
        assert any(w[2] is None for w in f3["witnesses"])


class TestVerdictLadder:
    # Every prime in (31, 10^5] stops at a failed pair or at unsanctioned
    # duplicates, so no real prime reaches the last two rungs. These run
    # them on hand-made witness columns with a clean ledger: family
    # C2_F3MOD8 claims 3 and 11, C2_TWO claims 2.
    def _report(self, f1_bound, threshold):
        rule = construction._Rule
        rules = [rule("C2_F3MOD8", f1_bound, 3, 12, 8), rule("C2_TWO", 1, 2, 3, 1, ratio=False)]
        chosen = np.array([3, 11, 2], dtype=np.int32)
        columns = rules, [0, 2, 3], chosen, chosen // 2, chosen
        report = ConstructionReport(47, CASE_TWO, 5, threshold, f1_bound + 1, 5, *columns)
        assert not report.failed_pairs and not report.dedup_ledger and report.distinct_qr_total == 3
        return report

    def test_all_rungs_met_is_verified(self):
        report = self._report(2, 3)
        assert (report.verdict, report.reason) == (VERIFIED, "")
        assert [f.distinct_contribution for f in report.families] == [2, 1]

    def test_distinct_below_threshold(self):
        report = self._report(2, 4)
        assert (report.verdict, report.reason) == (BOUND_VIOLATION, "distinct 3 < threshold 4")

    def test_family_below_its_bound(self):
        report = self._report(3, 3)
        assert report.verdict == BOUND_VIOLATION
        assert report.reason == "family C2_F3MOD8 contributed 2 < bound 3"


def _true_marks(p, flip=None):
    """The residue marks of p from the oracle, with the mark at flip toggled."""
    marks = np.zeros(p, dtype=np.uint8)
    marks[sorted(oracles.qr_set(p))] = 1
    if flip is not None:
        marks[flip] ^= 1
    return marks


class TestConsistencyGuards:
    # A broken residue table is injected where build_report reads it.

    def test_broken_lookup_detected(self, monkeypatch):
        cases = [
            (43, np.ones(43, dtype=np.uint8), r"^\(2/43\) must be -1 when p = 3 mod 8$"),
            (47, np.zeros(47, dtype=np.uint8), r"^\(2/47\) must be \+1 when p = 7 mod 8$"),
            (43, _true_marks(43, flip=42), r"^\(-1/43\) must be -1 when p = 3 mod 4$"),
            (47, _true_marks(47, flip=46), r"^\(-1/47\) must be -1 when p = 3 mod 4$"),
            # One pair member's mark flipped breaks exactly-one.
            (43, _true_marks(43, flip=8), "not exactly one residue"),
        ]
        for p, marks, message in cases:
            monkeypatch.setattr(construction, "_qr_marks", lambda pv, marks=marks: marks)
            with pytest.raises(ConsistencyError, match=message):
                build_report(p)

    @pytest.mark.parametrize(
        "p, flip, family",
        [(43, 12, r"C1_F4\[j=2\] pair \(12, 6\)"), (47, 5, r"C2_F5MOD8 pair \(5, 21\)")],
    )
    def test_broken_pair_names_its_family(self, monkeypatch, p, flip, family):
        # The flipped element lies in exactly one pair, of the named family.
        monkeypatch.setattr(construction, "_qr_marks", lambda pv: _true_marks(p, flip))
        with pytest.raises(ConsistencyError, match=f"^{family}: not exactly one residue$"):
            build_report(p)

    @pytest.mark.parametrize(
        "bounds, index, p, family",
        [
            ("case1_bounds", 0, 43, "C1_F1"),
            ("case1_bounds", 1, 1019, "C1_F2"),
            ("case2_bounds", 0, 47, "C2_F3MOD8"),
            ("case2_bounds", 3, 1031, "C2_F5MOD8"),
        ],
    )
    def test_bound_mismatch_names_its_family(self, monkeypatch, bounds, index, p, family):
        true_bounds = getattr(construction, bounds)

        def off_by_one(k):
            claimed = list(true_bounds(k))
            claimed[index] += 1
            return tuple(claimed)

        monkeypatch.setattr(construction, bounds, off_by_one)
        message = f"^{family} pair count disagrees with its floor bound$"
        with pytest.raises(ConsistencyError, match=message):
            build_report(p)


# Ledger size, claim count and sha256 of repr(list(dedup_ledger)), frozen
# from the list-building ledger that the column-backed view replaced.
LEDGER_DIGESTS = {
    20011: (1096, 2234, "4a076f526be1870179c0f250e36accf8fc69bb1cf2c507988405df608ee2c155"),
    20023: (1222, 2444, "9846500ce2157b4d65860698b13a66a398b861da49f479c18678e6a66884911e"),
    99991: (6184, 12368, "d902956f0145047bae915ecac4e92cef2b4d21c6802079ca3dcf2ae83458a496"),
}


class TestRowViews:
    def _views(self, report):
        views = [report.dedup_ledger, report.unexpected_duplicates]
        for fam in report.families:
            views += [fam.witnesses, fam.failed_pairs]
        return views

    @pytest.mark.parametrize("p", [7, 43, 107, 131, 20011, 20023])
    def test_indexing_and_slicing_agree_with_iteration(self, p):
        for view in self._views(build_report(p)):
            rows = list(view)
            assert len(view) == len(rows) and bool(view) == bool(rows)
            assert view[:3] == rows[:3]
            assert view[1::2] == rows[1::2] and view[::-1] == rows[::-1]
            if rows:
                assert view[-1] == rows[-1] and view[0] == rows[0]
                assert view[len(rows) // 2] == rows[len(rows) // 2]
                assert view[np.int64(-len(rows))] == rows[0]
            for past in (len(rows), -len(rows) - 1):
                with pytest.raises(IndexError):
                    view[past]

    def test_unexpected_duplicates_select_from_the_ledger(self):
        for p in (43, 47, 20011):
            report = build_report(p)
            ledger = list(report.dedup_ledger)
            assert list(report.unexpected_duplicates) == [e for e in ledger if not e.expected]
            assert report.failed_pairs == [
                w for f in report.families for w in f.witnesses if w.chosen_qr is None
            ]

    @pytest.mark.parametrize("p", sorted(LEDGER_DIGESTS))
    def test_ledger_entries_unchanged(self, p):
        ledger = list(build_report(p).dedup_ledger)
        digest = hashlib.sha256(repr(ledger).encode()).hexdigest()
        assert (len(ledger), sum(len(e.sites) for e in ledger), digest) == LEDGER_DIGESTS[p]

    def test_released_report_is_freed_without_the_cyclic_gc(self):
        # No view a report caches may hold the report: a cycle would keep
        # every audited prime's arrays until the cyclic GC ran.
        gc.disable()
        try:
            for p in (19, 107, 20011, 20023):
                report = build_report(p)
                report.families, report.failed_pairs, report.to_json_dict()
                report.dedup_ledger[:1], report.unexpected_duplicates[:3]
                released = weakref.ref(report)
                del report
                assert released() is None, p
        finally:
            gc.enable()

    def test_audit_memory_per_pair(self):
        # At p = 1000003 (250002 pairs) the audit and verify's excerpt peak
        # near 40 B per pair, the figure the _CONSTRUCT_LIMIT comment sizes
        # the limit by, and the report keeps its three columns and its
        # ledger, near 13 B per pair: no column as long as the half interval,
        # and no per-row column beyond those three.
        build_report(1000003)
        tracemalloc.start()
        try:
            report = build_report(1000003)
            report.unexpected_duplicates[:3]
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = len(report.chosen)
        assert peak / pairs <= 48
        assert kept / pairs <= 13.5

    def test_iterating_the_ledger_builds_one_slice_at_a_time(self, monkeypatch):
        # The text of construct iterates the whole ledger; no call may build
        # every entry's site labels at once.
        report = build_report(1000003)
        entries, asked = ConstructionReport._entries, []

        def spy(self, sel):
            asked.append(len(self._ledger[sel]))
            return entries(self, sel)

        monkeypatch.setattr(ConstructionReport, "_entries", spy)
        ledger = list(report.dedup_ledger)
        assert len(asked) > 1 and max(asked) <= construction._SLICE
        assert sum(asked) == len(ledger) == len(report.dedup_ledger)
        assert [e.element for e in ledger] == report._ledger.tolist()

    def test_lengths_build_no_rows(self, monkeypatch):
        def refuse(self, sel):
            raise AssertionError("a row was built")

        monkeypatch.setattr(ConstructionReport, "_entries", refuse)
        monkeypatch.setattr(FamilyReport, "_witnesses", refuse)
        # 20011 is Case 1: its ledger holds the sanctioned overlap at 4 too.
        for p, unexpected, sanctioned in ((7, 0, 0), (20011, 1095, 1), (20023, 1222, 0)):
            report = build_report(p)
            assert report.unexpected_count == len(report.unexpected_duplicates) == unexpected
            assert bool(report.unexpected_duplicates) == bool(unexpected)
            assert len(report.dedup_ledger) == unexpected + sanctioned
            for f in report.families:
                assert len(f.witnesses) == len(f.candidates)
                assert bool(f.witnesses) == (len(f.candidates) > 0)
                assert len(f.failed_pairs) == np.count_nonzero(f.chosen == 0)
        for p in filter(is_prime, range(3, 3001, 4)):
            report = build_report(p)
            assert report.unexpected_count == len(report.unexpected_duplicates), p
        with pytest.raises(AssertionError, match="a row was built"):
            build_report(20011).unexpected_duplicates[:1]
