"""Tests for modular arithmetic, primality and Legendre symbols."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfsum.arith import (
    OddPrime,
    as_prime,
    is_prime,
    legendre_euler,
    legendre_reciprocity,
)
from halfsum.errors import DomainError


class TestIsPrime:
    def test_examples(self):
        assert not is_prime(1)
        assert is_prime(43)
        assert not is_prime(35)

    def test_against_trial_division(self):
        for n in range(0, 2000):
            assert is_prime(n) == oracles.is_prime_trial(n), n

    def test_large_values(self):
        # Mersenne prime 2^61 - 1 and a neighbouring composite.
        assert is_prime(2305843009213693951)
        assert not is_prime(2305843009213693953)
        # The largest prime below 2^64, the modulus cap.
        assert is_prime(2**64 - 59)
        # Each witness tier's bound is a strong pseudoprime to that tier's
        # witnesses, so it must be tested with the next tier's.
        for n in (3215031751, 3474749660383, 341550071728321):
            assert not is_prime(n), n
        # Carmichael number: fools Fermat, not Miller-Rabin.
        assert not is_prime(561)


class TestOddPrime:
    def test_fields(self):
        p = OddPrime(43)
        assert p.value == 43
        assert p.residue_mod_8 == 3
        assert p.k == 5
        assert int(p) == 43
        p = OddPrime(47)
        assert (p.residue_mod_8, p.k) == (7, 5)

    def test_residue_decomposition(self, small_odd_primes):
        for v in small_odd_primes:
            p = OddPrime(v)
            assert p.value == 8 * p.k + p.residue_mod_8
            assert p.residue_mod_8 in (1, 3, 5, 7)

    def test_rejects_non_primes(self):
        for bad in (0, 1, 2, 4, 9, 35, 561, -7):
            with pytest.raises(DomainError):
                OddPrime(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            OddPrime(7.0)
        with pytest.raises(DomainError):
            OddPrime(True)

    def test_equality_and_coercion(self):
        assert OddPrime(7) == OddPrime(7)
        assert OddPrime(7) == 7
        assert OddPrime(7) != OddPrime(11)
        assert as_prime(7) == as_prime(OddPrime(7))
        assert len({OddPrime(7), OddPrime(7), 7}) == 1


class TestLegendreSymbols:
    def test_euler_examples(self):
        assert legendre_euler(7, 7) == 0
        assert legendre_euler(2, 7) == 1
        assert legendre_euler(3, 7) == -1

    def test_reciprocity_examples(self):
        assert legendre_reciprocity(2, 17) == 1
        assert legendre_reciprocity(-1, 11) == -1
        assert legendre_reciprocity(5, 7) == -1

    def test_negative_and_oversized_arguments(self):
        for p in (7, 11, 19, 43):
            for a in range(-2 * p, 2 * p + 1):
                expected = oracles.symbol_brute(a, p)
                assert legendre_euler(a, p) == expected
                assert legendre_reciprocity(a, p) == expected

    def test_methods_agree_with_brute_force(self, small_odd_primes):
        for p in small_odd_primes:
            qrs = oracles.qr_set(p)
            for a in range(0, p):
                expected = 0 if a == 0 else (1 if a in qrs else -1)
                assert legendre_euler(a, p) == expected
                assert legendre_reciprocity(a, p) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=-(10**6), max_value=10**6),
        b=st.integers(min_value=-(10**6), max_value=10**6),
        idx=st.integers(min_value=0, max_value=60),
    )
    def test_multiplicativity(self, a, b, idx, small_odd_primes):
        p = small_odd_primes[idx]
        lhs = legendre_euler(a * b, p)
        assert lhs == legendre_euler(a, p) * legendre_euler(b, p)
        assert lhs == legendre_reciprocity(a * b, p)

    def test_second_supplement(self, small_odd_primes):
        for p in small_odd_primes:
            assert (legendre_euler(2, p) == 1) == (p % 8 in (1, 7))

    def test_first_supplement(self, small_odd_primes):
        for p in small_odd_primes:
            assert (legendre_euler(-1, p) == -1) == (p % 4 == 3)

    def test_supplements_to_ten_thousand(self):
        for p in oracles.primes_trial(3, 10_000):
            assert (legendre_reciprocity(2, p) == 1) == (p % 8 in (1, 7))
            assert (legendre_reciprocity(-1, p) == -1) == (p % 4 == 3)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            legendre_euler(2, 9)
        with pytest.raises(DomainError):
            legendre_reciprocity(2, 15)
