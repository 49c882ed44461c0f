"""Shared fixtures for the test suite."""

import pytest

import oracles
from halfsum import arith, charsum


@pytest.fixture(scope="session")
def small_odd_primes():
    """Odd primes up to 300, from the trial-division oracle."""
    return oracles.primes_trial(3, 300)


@pytest.fixture(scope="session")
def primes_3mod4_to_1500():
    """Primes = 3 mod 4 up to 1500, from the trial-division oracle."""
    return oracles.primes_trial(3, 1500, 3, 4)


@pytest.fixture
def is_prime_calls(monkeypatch):
    """Arguments of every halfsum.arith.is_prime call made during the test.

    OddPrime runs is_prime on construction, so the list records each time a
    prime is validated.
    """
    calls = []
    original = arith.is_prime

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    return calls


@pytest.fixture
def squares_passes(monkeypatch):
    """p of every squares pass (charsum._quotients call) made during the test.

    Every sieve, residue table and residue sum squares the half interval
    through that one kernel, so the list records each pass over a prime.
    """
    calls = []
    original = charsum._quotients

    def counted(pv, *args):
        calls.append(pv)
        return original(pv, *args)

    monkeypatch.setattr(charsum, "_quotients", counted)
    return calls
