"""Tests for half-interval and full-interval character sums."""

import pytest

import oracles
from halfsum.arith import OddPrime
from halfsum.charsum import (
    HalfSumRecord,
    full_sum,
    half_sum,
    half_sum_direct,
    half_sum_sieve,
    qr_table,
    qr_value_sum,
)
from halfsum.errors import ConsistencyError, DomainError, ResourceLimitError


class TestHalfSumDirect:
    def test_examples(self):
        assert half_sum_direct(7).a_value == 1
        assert half_sum_direct(13).a_value == 0
        assert half_sum_direct(11).a_value == 3

    def test_counts(self):
        rec = half_sum_direct(7)
        assert (rec.qr_count, rec.nqr_count, rec.method) == (2, 1, "direct")


class TestHalfSumSieve:
    def test_examples(self):
        assert half_sum_sieve(7).qr_count == 2
        assert half_sum_sieve(7).a_value == 1
        assert half_sum_sieve(3).a_value == 1
        assert half_sum_sieve(23).a_value == 3

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            half_sum_sieve(2147483659)  # prime just above 2^31


class TestMethodAgreement:
    def test_direct_equals_sieve_equals_brute(self, small_odd_primes):
        for p in small_odd_primes:
            d = half_sum_direct(p)
            s = half_sum_sieve(p)
            assert (d.p, d.qr_count, d.nqr_count, d.a_value) == (
                s.p,
                s.qr_count,
                s.nqr_count,
                s.a_value,
            )
            assert d.a_value == oracles.half_sum_brute(p)

    def test_direct_equals_sieve_to_three_thousand(self):
        for p in oracles.primes_trial(3, 3000):
            assert half_sum_direct(p).a_value == half_sum_sieve(p).a_value


class TestAuto:
    def test_dispatch(self):
        assert half_sum(101).method == "direct"
        assert half_sum(9973).method == "direct"
        assert half_sum(10007).method == "sieve"
        assert half_sum(101, method="sieve").method == "sieve"

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            half_sum(7, method="guess")

    def test_validated_prime_is_not_validated_again(self, is_prime_calls):
        primes = [OddPrime(7919), OddPrime(10007)]  # direct, then sieve
        is_prime_calls.clear()
        assert [half_sum(op).method for op in primes] == ["direct", "sieve"]
        assert is_prime_calls == []


class TestResidueClassBehaviour:
    def test_one_mod_four_vanishes(self):
        for p in oracles.primes_trial(5, 2000, 1, 4):
            assert half_sum_sieve(p).a_value == 0

    def test_three_mod_four_is_odd(self, primes_3mod4_to_1500):
        for p in primes_3mod4_to_1500:
            a = half_sum_sieve(p).a_value
            assert a % 2 == 1
            assert a != 0

    def test_theorem_holds_in_small_range(self, primes_3mod4_to_1500):
        for p in primes_3mod4_to_1500:
            assert half_sum_sieve(p).a_value > 0


class TestFullSum:
    def test_examples(self):
        assert full_sum(7) == 0
        assert full_sum(3) == 0
        assert full_sum(101) == 0

    def test_zero_for_all_small_odd_primes(self, small_odd_primes):
        for p in small_odd_primes:
            assert full_sum(p) == 0


class TestRecordInvariants:
    def test_partition_enforced(self):
        with pytest.raises(ConsistencyError):
            HalfSumRecord(p=7, qr_count=2, nqr_count=2, a_value=0, method="direct")

    def test_a_value_enforced(self):
        with pytest.raises(ConsistencyError):
            HalfSumRecord(p=7, qr_count=2, nqr_count=1, a_value=-1, method="direct")

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            half_sum_direct(9)
        with pytest.raises(DomainError):
            half_sum_sieve(15)
        with pytest.raises(DomainError):
            full_sum(21)


class TestQrHelpers:
    def test_qr_table_matches_brute(self, small_odd_primes):
        for p in small_odd_primes[:30]:
            table = qr_table(p)
            qrs = oracles.qr_set(p)
            assert len(table) == p
            assert table[0] == 0
            for a in range(1, p):
                assert (table[a] == 1) == (a in qrs)

    def test_qr_value_sum_matches_brute(self, small_odd_primes):
        for p in small_odd_primes[:30]:
            assert qr_value_sum(p) == sum(oracles.qr_set(p))
