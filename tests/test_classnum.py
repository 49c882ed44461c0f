"""Tests for class-number computation and the analytic identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfsum import classnum
from halfsum.classnum import (
    class_number_character_sum,
    identity_check,
    identity_checks,
    l_value_estimate,
    reduced_forms,
    reduced_forms_count,
)
from halfsum.errors import DomainError, ResourceLimitError


def _expanded(forms):
    """Every form the columns stand for, mirrors (a, -b, c) included, sorted."""
    rows = list(zip(forms.a.tolist(), forms.b.tolist(), forms.c.tolist()))
    return sorted(rows + [(a, -b, c) for a, b, c in rows if b != a and a != c])


class TestReducedForms:
    def test_examples(self):
        assert _expanded(reduced_forms(7)) == [(1, 1, 2)]
        assert _expanded(reduced_forms(23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
        assert reduced_forms_count(163) == 1

    def test_spot_values(self):
        assert reduced_forms_count(7) == 1
        assert reduced_forms_count(23) == 3
        assert reduced_forms_count(47) == 5
        assert reduced_forms_count(163) == 1

    def test_forms_are_reduced_with_right_discriminant(self):
        for p in oracles.primes_trial(7, 400, 3, 4):
            forms = reduced_forms(p)
            a, b, c = forms.a, forms.b, forms.c
            assert np.all(b * b - 4 * a * c == -p), p
            assert np.all((0 < b) & (b <= a) & (a <= c)), p

    def test_against_brute_search(self):
        ps = oracles.primes_trial(7, 600, 3, 4)
        for p in ps:
            forms = reduced_forms(p)
            assert _expanded(forms) == oracles.forms_brute(p), p
            assert len(forms) == len(oracles.forms_brute(p)), p
        # One batch counts the same forms, its blocks crossing from one
        # prime to the next.
        brute = [len(oracles.forms_brute(p)) for p in ps]
        assert [rec.h_forms for rec in identity_checks(ps)] == brute

    def test_blocks_split_between_values_of_b(self, monkeypatch):
        # Blocks of 7 trial divisors: some hold several b, and a b with more
        # divisors than that gets a block of its own. In a batch, groups of
        # at most 7 rows: a prime with more rows gets a group of its own.
        monkeypatch.setattr(classnum, "_BLOCK", 7)
        self.test_against_brute_search()

    def test_count_is_the_length_of_the_module_level_enumeration(self, monkeypatch):
        # perfbench counts h by wrapping classnum.reduced_forms and taking
        # len of its result; reduced_forms_count must go through that name.
        results = []
        original = classnum.reduced_forms

        def recorded(p):
            results.append(original(p))
            return results[-1]

        monkeypatch.setattr(classnum, "reduced_forms", recorded)
        assert reduced_forms_count(1000003) == 105
        assert [len(r) for r in results] == [105]

    def test_largest_prime_below_the_limit(self):
        assert reduced_forms_count(2147483647) == 19865
        # Its ~13.4k rows pass a group's budget of _BLOCK rows: in a batch
        # they make a group of their own between groups of small primes.
        small = oracles.primes_trial(7, 300, 3, 4)
        recs = identity_checks(small + [2147483647] + small)
        expected = [reduced_forms_count(p) for p in small]
        assert [rec.h_forms for rec in recs] == expected + [19865] + expected
        assert all(rec.ok for rec in recs)

    def test_limit_matches_the_character_sum(self, monkeypatch, squares_passes):
        # 2147483659 is the first prime = 3 mod 4 past 2^31.
        for method in (reduced_forms, reduced_forms_count, class_number_character_sum):
            with pytest.raises(ResourceLimitError):
                method(2147483659)
        # A batch that holds one such prime stops before any prime's forms
        # are enumerated or its residues squared.
        def refuse(pvs):
            raise AssertionError(f"forms enumerated for {pvs}")

        monkeypatch.setattr(classnum, "_factorisations", refuse)
        squares_passes.clear()
        for batch in ([7, 11, 2147483659], [2147483659, 7]):
            with pytest.raises(ResourceLimitError, match="class-number limit"):
                identity_checks(batch)
        assert squares_passes == []

    def test_domain(self):
        with pytest.raises(DomainError):
            reduced_forms_count(3)
        with pytest.raises(DomainError):
            reduced_forms_count(13)
        with pytest.raises(DomainError):
            reduced_forms_count(15)


class TestCharacterSum:
    def test_examples(self):
        assert class_number_character_sum(7) == 1
        assert class_number_character_sum(11) == 1
        assert class_number_character_sum(47) == 5

    def test_against_brute_sum(self):
        for p in oracles.primes_trial(7, 400, 3, 4):
            assert class_number_character_sum(p) == oracles.class_number_brute(p)

    def test_methods_agree(self):
        above_a_million = oracles.primes_trial(1_000_000, 1_000_200, 3, 4)
        for p in oracles.primes_trial(7, 1000, 3, 4) + above_a_million:
            assert reduced_forms_count(p) == class_number_character_sum(p), p

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=7, max_value=2 * 10**6))
    def test_methods_agree_on_random_primes(self, n):
        p = n - (n + 1) % 4
        while not oracles.is_prime_trial(p):
            p -= 4
        assert reduced_forms_count(p) == class_number_character_sum(p), p

    def test_domain(self):
        with pytest.raises(DomainError):
            class_number_character_sum(3)
        with pytest.raises(DomainError):
            class_number_character_sum(17)


class TestIdentity:
    def test_examples(self):
        rec = identity_check(11)
        assert (rec.identity_lhs, rec.identity_rhs) == (3, 3)
        assert rec.h_forms == 1
        rec = identity_check(23)
        assert (rec.identity_lhs, rec.identity_rhs) == (3, 3)
        assert rec.h_forms == 3
        rec = identity_check(47)
        assert (rec.identity_lhs, rec.identity_rhs) == (5, 5)

    def test_holds_in_range(self):
        for p in oracles.primes_trial(7, 1000, 3, 4):
            rec = identity_check(p)
            assert rec.ok, p
            assert rec.methods_agree and rec.identity_holds
        # One batch over [7, 20000], ~29k rows in four groups of at most _BLOCK,
        # gives each prime the h of its own enumeration, in order.
        ps = oracles.primes_trial(7, 20000, 3, 4)
        recs = identity_checks(ps)
        assert [rec.p for rec in recs] == ps
        assert [rec.h_forms for rec in recs] == [reduced_forms_count(p) for p in ps]
        assert all(rec.ok for rec in recs)

    def test_validates_the_prime_once(self, is_prime_calls):
        for p in (7919, 1000003):
            is_prime_calls.clear()
            assert identity_check(p).ok
            assert is_prime_calls == [p]

    def test_positivity_chain(self):
        for p in oracles.primes_trial(7, 1000, 3, 4):
            rec = identity_check(p)
            factor = rec.identity_rhs // rec.h_forms
            assert factor in (1, 3)
            assert rec.h_forms >= 1
            assert rec.identity_lhs > 0


class TestLValue:
    def test_exact_values(self):
        rec = l_value_estimate(7, 10**5)
        assert rec.l_exact == pytest.approx(math.pi / math.sqrt(7), abs=1e-12)
        assert rec.l_exact == pytest.approx(1.1874, abs=5e-5)
        rec = l_value_estimate(11, 10**5)
        assert rec.l_exact == pytest.approx(math.pi / math.sqrt(11), abs=1e-12)
        assert rec.l_exact == pytest.approx(0.9472, abs=5e-5)

    def test_partial_within_tolerance(self):
        for p in (7, 11, 23, 43, 47):
            rec = l_value_estimate(p, 100 * p)
            assert rec.within_tolerance
            assert rec.tolerance == pytest.approx(5 / math.sqrt(100 * p))
            assert rec.identity_residual < 1e-9
            assert rec.l_exact > 0

    @pytest.mark.parametrize("p", [47, 1000003])
    def test_two_squares_passes(self, squares_passes, p):
        # One pass for the identity record's A(p) and residue sum, one for the series.
        l_value_estimate(p, 100 * p)
        assert squares_passes == [p, p]

    def test_convergence_trend(self):
        # Average error over several primes shrinks from p terms to 100p.
        primes = (7, 11, 19, 23, 31, 43, 47)
        short = sum(
            abs(l_value_estimate(p, p).l_partial - l_value_estimate(p, p).l_exact)
            for p in primes
        )
        long = sum(
            abs(
                l_value_estimate(p, 100 * p).l_partial
                - l_value_estimate(p, 100 * p).l_exact
            )
            for p in primes
        )
        assert long < short

    def test_domain(self):
        with pytest.raises(DomainError):
            l_value_estimate(3, 1000)
        with pytest.raises(DomainError):
            l_value_estimate(7, 6)
        with pytest.raises(DomainError):
            l_value_estimate(13, 10**4)
