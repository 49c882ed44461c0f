"""Tests for half-interval and full-interval character sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfsum import charsum, classnum
from halfsum.arith import OddPrime
from halfsum.charsum import (
    HalfSumRecord,
    full_sum,
    half_sum_direct,
    half_sum_sieve,
    l_series_partial,
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

    def test_validated_prime_is_not_validated_again(self, is_prime_calls):
        primes = [OddPrime(7919), OddPrime(10007)]
        is_prime_calls.clear()
        for op in primes:
            assert half_sum_direct(op).a_value == half_sum_sieve(op).a_value
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


# Series lengths for the L(1, chi) partial sum, by name, as functions of p.
_L_LENGTHS = {
    "N=1": lambda p: 1,
    "N=p-1": lambda p: p - 1,
    "N=p": lambda p: p,
    "N=7p+3": lambda p: 7 * p + 3,
    "N=100p": lambda p: 100 * p,
    "N=100p+p//3": lambda p: 100 * p + p // 3,
}


def _l_series_brute(p, terms):
    """sum of (n/p)/n for n = 1 .. terms, term by term, with symbols from qr_set."""
    qrs = oracles.qr_set(p)
    return math.fsum((1 if n % p in qrs else -1) / n for n in range(1, terms + 1) if n % p)


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

    @pytest.mark.parametrize("block", [charsum._BLOCK, 7])
    def test_both_residue_sums_match_brute_across_blocks(self, monkeypatch, block):
        # qr_value_sum (classnum --method charsum) is the sieve's residue_sum
        # (identity_check); short blocks make every prime span several, with
        # c0, c1 != 0 in all but the first.
        monkeypatch.setattr(charsum, "_BLOCK", block)
        for p in oracles.primes_trial(3, 400) + [1000003]:
            brute = sum(x * x % p for x in range(1, (p + 1) // 2))
            rec = half_sum_sieve(p, sum_residues=True)
            assert qr_value_sum(p) == rec.residue_sum == brute, p
            if p < 400:
                assert rec.a_value == oracles.half_sum_brute(p), p
        for p in oracles.primes_trial(7, 400, 3, 4):
            rec = classnum.identity_check(p)
            assert rec.ok and rec.h_charsum == len(oracles.forms_brute(p)), p

    def test_l_series_partial_matches_brute(self):
        for p in (7, 11, 23, 101):
            terms = 7 * p + 3
            brute = math.fsum(oracles.symbol_brute(n, p) / n for n in range(1, terms + 1))
            value = l_series_partial(p, terms)
            assert type(value) is float  # as annotated, not a numpy scalar
            assert value == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23, 101, 1019], ids="p={}".format)
    @pytest.mark.parametrize("length", _L_LENGTHS)
    def test_l_series_partial_matches_direct_sum(self, p, length):
        # 101 is 1 mod 4: the sum is defined for every odd prime.
        terms = _L_LENGTHS[length](p)
        assert l_series_partial(p, terms) == pytest.approx(_l_series_brute(p, terms), abs=1e-12)

    def test_l_series_partial_spans_blocks(self):
        # The (p-1)/2 = 50001 squares of p = 100003 span two kernel blocks, and
        # terms = p + 40000 gives one more term to residues in both of them.
        p = 100003
        assert charsum._BLOCK < (p - 1) // 2 < 2 * charsum._BLOCK
        terms = p + 40000
        assert l_series_partial(p, terms) == pytest.approx(_l_series_brute(p, terms), abs=1e-12)

    def test_l_series_partial_at_the_cap(self):
        # The tail past 2^35 terms is ~1e-11, far inside 1e-9.
        limit = charsum._L_TERMS_LIMIT
        assert l_series_partial(7, limit) == pytest.approx(math.pi / math.sqrt(7), abs=1e-9)

    def test_l_series_partial_memory(self):
        # A few float64 columns of _BLOCK squares each: no table or column as
        # long as p, which at 8 MB would pass the bound by itself.
        p = 8388619
        l_series_partial(p, 100 * p)
        tracemalloc.start()
        try:
            l_series_partial(p, 100 * p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


class TestLimits:
    def test_sieve_limit_guards_the_residue_sum(self):
        op = OddPrime(2147483659)  # prime just above 2^31
        with pytest.raises(ResourceLimitError):
            qr_value_sum(op)

    def test_table_limit_guards_every_table(self, monkeypatch):
        monkeypatch.setattr(charsum, "_TABLE_LIMIT", 100)
        assert len(qr_table(97)) == 97
        for fn in (qr_table, full_sum):
            with pytest.raises(ResourceLimitError):
                fn(101)
        # The L series reads the squares pass, not a table.
        assert l_series_partial(101, 1000) == pytest.approx(_l_series_brute(101, 1000), abs=1e-12)

    def test_l_series_limit_refuses_before_any_table(self, monkeypatch):
        # The cap bounds the input, not the time: identity --l-check's default
        # of 100p terms stays under it for p <= 343597383, and every K_r stays
        # exact in float64.
        assert 100 * 343597383 <= charsum._L_TERMS_LIMIT < 2**53
        monkeypatch.setattr(charsum, "_quotients", None)
        with pytest.raises(ResourceLimitError):
            l_series_partial(7, charsum._L_TERMS_LIMIT + 1)


def _kernel_block(p, x0, n):
    """The kernel's quotients u for the one block x = x0 .. x0 + n - 1."""
    ((_, _, u, _),) = charsum._quotients(p, x0, x0 + n)
    return u


def _check_block(p, x0, u, exact=None):
    """Check a kernel block against integer arithmetic; return x^2 mod p.

    On every element: floor(u) is the quotient floor(v/p) of the kernel's
    v = c0 + (c1 + i)*i, frac(u) < 1/2 exactly where x^2 mod p <= (p-1)/2
    (and so does u > rint(u) off the multiples of p), and the residue
    marks' p*frac(u), truncated, is x^2 mod p. At the indices `exact` (every
    index by default) the bound 0 <= p*u - v < 1/8 is checked in exact
    rationals.
    """
    i = np.arange(len(u), dtype=np.int64)
    v = x0 * x0 % p + (2 * x0 % p + i) * i  # below 2^47, exact in int64
    q, m = np.divmod(v, p)
    assert np.array_equal(m, ((x0 + i) % p) ** 2 % p)
    whole = np.floor(u)
    frac = u - whole
    assert np.array_equal(whole.astype(np.int64), q), (p, x0)
    assert np.array_equal(frac < 0.5, m <= (p - 1) // 2), (p, x0)
    off = m > 0
    assert np.array_equal((u > np.rint(u))[off], (m <= (p - 1) // 2)[off]), (p, x0)
    # half_sum_sieve's residue sum takes floor(u) as rint(u) less 1 where
    # u does not exceed rint(u); that holds only off the multiples of p.
    assert np.array_equal(whole[off], (np.rint(u) - (u <= np.rint(u)))[off]), (p, x0)
    assert np.array_equal((p * frac).astype(np.int64), m), (p, x0)
    for k in range(len(u)) if exact is None else exact:
        num, den = float(u[k]).as_integer_ratio()
        scaled = p * num - int(v[k]) * den  # (p*u - v) * den
        assert 0 <= scaled and 8 * scaled < den, (p, x0 + int(k))
    return m


class TestSquaresKernel:
    # Each block is checked on its own, so no test builds a table of size p.

    @pytest.mark.parametrize("p", [2147483647, 2146483663])
    def test_first_middle_and_last_block_below_the_sieve_limit(self, p):
        # 2^31 - 1 is the largest prime the kernel accepts, where v comes
        # closest to the 2^46 + 2^32 the error bound allows for.
        assert p < charsum._SIEVE_LIMIT and oracles.is_prime_trial(p)
        half, block = (p - 1) // 2, charsum._BLOCK
        last = (half - 1) // block
        for x0 in (1, 1 + (last // 2) * block, 1 + last * block):
            n = min(block, half + 1 - x0)
            _check_block(p, x0, _kernel_block(p, x0, n))
        assert x0 + n - 1 == half

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=charsum._SIEVE_LIMIT - 1),
        where=st.floats(min_value=0, max_value=1),
    )
    def test_random_primes_and_block_starts(self, n, where):
        p = n
        while not oracles.is_prime_trial(p):
            p -= 1
        half = (p - 1) // 2
        x0 = 1 + int(where * (half - 1))
        count = min(charsum._BLOCK, half + 1 - x0)
        _check_block(p, x0, _kernel_block(p, x0, count))

    def test_multiples_of_p_reduce_to_zero(self):
        # The reciprocal is rounded up, so even v = 0 (mod p) floors to its
        # exact quotient. From x0 = 0 a block passes x = 0, p, 2p, ...; with
        # 1/p rounded to nearest, 68 of the primes below 3000 would floor
        # some v = k*p to k - 1 and mark residue p - 1 instead of 0.
        # These blocks pass multiples of p, where frac(u) may be exactly 0,
        # so the sieve's sum(floor(u)) = sum(rint(u)) - (n - count) does
        # not hold on them; it is only used on the half interval.
        for p in oracles.primes_trial(3, 3000):
            u = _kernel_block(p, 0, charsum._BLOCK)
            _check_block(p, 0, u, exact=range(0, charsum._BLOCK, p))
        for p in (1000003, 2147483647):
            m = _check_block(p, 5 * p - 3, _kernel_block(p, 5 * p - 3, 7))
            assert m.tolist() == [9, 4, 1, 0, 1, 4, 9]

    def test_blocks_cover_the_half_interval_in_order(self, monkeypatch):
        monkeypatch.setattr(charsum, "_BLOCK", 5)
        p = 103
        got, x0 = [], 1
        for c0, c1, u, _ in charsum._quotients(p):
            assert (c0, c1) == (x0 * x0 % p, 2 * x0 % p)
            got += _check_block(p, x0, u).tolist()
            x0 += len(u)
        assert got == [x * x % p for x in range(1, (p + 1) // 2)]

    def test_buffers_start_on_64_byte_boundaries(self):
        # Where the heap puts them must not decide the kernel's speed.
        assert charsum._I.ctypes.data % 64 == 0
        for p in (103, 1000003):
            for _, _, u, w in charsum._quotients(p):
                assert u.ctypes.data % 64 == 0 and w.ctypes.data % 64 == 0
        for n in range(1, 20):
            buf = charsum._aligned_empty(n)
            assert buf.shape == (n,) and buf.dtype == np.float64 and buf.ctypes.data % 64 == 0
