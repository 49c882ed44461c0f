"""Tests for the segmented prime sieve."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from halfsum import primes
from halfsum.errors import DomainError, ResourceLimitError
from halfsum.primes import iter_primes, primes_in_range


class TestPrimesInRange:
    def test_examples(self):
        assert primes_in_range(1, 20, 3, 4) == [3, 7, 11, 19]
        assert primes_in_range(1, 2) == [2]
        assert primes_in_range(24, 28) == []

    def test_inverted_range_is_empty(self):
        assert primes_in_range(10, 5) == []

    def test_against_trial_division(self):
        assert primes_in_range(0, 10_000) == oracles.primes_trial(0, 10_000)

    def test_filtered_against_trial_division(self):
        for residue, modulus in ((3, 4), (1, 4), (7, 8), (0, 2)):
            assert primes_in_range(0, 3000, residue, modulus) == oracles.primes_trial(
                0, 3000, residue, modulus
            )

    def test_segment_boundaries(self):
        # Ranges straddling the internal segment size must not drop primes.
        seg = 1 << 18
        got = primes_in_range(seg - 50, seg + 50)
        assert got == oracles.primes_trial(seg - 50, seg + 50)

    def test_prime_count_to_one_million(self):
        # Classical value pi(10^6) = 78498.
        assert len(primes_in_range(1, 10**6)) == 78498

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=5000),
        span1=st.integers(min_value=0, max_value=3000),
        span2=st.integers(min_value=0, max_value=3000),
    )
    def test_partition_property(self, a, span1, span2):
        b = a + span1
        c = b + span2
        left = primes_in_range(a, b)
        right = primes_in_range(b + 1, c)
        assert left + right == primes_in_range(a, c)
        assert not (set(left) & set(right))

    def test_errors(self):
        with pytest.raises(DomainError):
            primes_in_range(1, 10, 3, 0)
        with pytest.raises(DomainError):
            primes_in_range(1, 10, residue=3)
        with pytest.raises(DomainError):
            primes_in_range(-5, 10)

    def test_sieve_limit(self, monkeypatch):
        # The base sieve holds sqrt(hi) flags: ~909 TiB at hi = 10^30.
        with pytest.raises(ResourceLimitError):
            primes_in_range(10**30, 10**30 + 10)
        monkeypatch.setattr(primes, "_SIEVE_LIMIT", 100)
        assert primes_in_range(90, 99) == [97]
        assert primes_in_range(200, 100) == []
        with pytest.raises(ResourceLimitError):
            primes_in_range(90, 100)

    def test_residue_normalisation(self):
        assert primes_in_range(1, 20, 7, 4) == primes_in_range(1, 20, 3, 4)

    def test_ascending_and_lazy(self):
        it = iter_primes(2, 10**9)
        assert next(it) == 2
        assert next(it) == 3
