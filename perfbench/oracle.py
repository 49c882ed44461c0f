"""Output checks for the benchmark sweeps, independent of the halfsum package.

Nothing here imports halfsum. Primes come from a plain band sieve, A(p)
from Euler's criterion evaluated by vectorised square-and-multiply, and
the construction audit's findings from a digest recorded at a known-good
commit (audit_digest.csv, regenerated with `python3 perfbench/oracle.py
--record-digest`).
"""

from __future__ import annotations

import csv
import io
import random
import re
import sys
from math import isqrt
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGEST = HERE / "audit_digest.csv"

# Squares of residues below this stay inside int64.
_EULER_LIMIT = 3_000_000_000

_FAILURE_LINE = re.compile(r"p=(\d+): ")
_IDENTITY_TAIL = re.compile(
    r"identity checked for (\d+) primes in \[(\d+), (\d+)\]; failures: (\d+)$"
)


def primes_3mod4(lo: int, hi: int) -> list[int]:
    """Primes p = 3 mod 4 in [lo, hi], by striking multiples of every d."""
    lo = max(lo, 2)
    if lo > hi:
        return []
    flags = np.ones(hi - lo + 1, dtype=bool)
    for d in range(2, isqrt(hi) + 1):
        first = max(d * d, -(-lo // d) * d)
        flags[first - lo :: d] = False
    found = np.flatnonzero(flags) + lo
    return [int(p) for p in found if p % 4 == 3]


def euler_half_sum(p: int) -> int:
    """A(p) = sum of a^((p-1)/2) mod p over a = 1 .. (p-1)/2, as +-1 values."""
    if p >= _EULER_LIMIT:
        raise ValueError(f"p = {p} would overflow the int64 Euler oracle")
    half = (p - 1) // 2
    base = np.arange(1, half + 1, dtype=np.int64)
    acc = np.ones_like(base)
    e = half
    while e:
        if e & 1:
            acc = acc * base % p
        base = base * base % p
        e >>= 1
    qr = int(np.count_nonzero(acc == 1))
    if qr + int(np.count_nonzero(acc == p - 1)) != half:
        raise ArithmeticError(f"Euler's criterion gave a value other than +-1 mod {p}")
    return 2 * qr - half


def load_digest(path: Path = DIGEST) -> dict[int, tuple[int, int, str]]:
    """p -> (claimed, distinct, verdict) recorded for the audit window."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return {int(p): (int(c), int(d), v) for p, c, d, v in rows[1:]}


class Oracle:
    """Checks sweep outputs for one band; brute-force results are memoised."""

    def __init__(self, lo: int, hi: int, seed: int, digest=None, samples: int = 3):
        self.lo, self.hi = lo, hi
        self.primes = primes_3mod4(lo, hi)
        self.digest = digest
        rng = random.Random(f"oracle:{seed}")
        self.sample = sorted(rng.sample(self.primes, min(samples, len(self.primes))))
        self._euler: dict[int, int] = {}

    def _a(self, p: int) -> int:
        if p not in self._euler:
            self._euler[p] = euler_half_sum(p)
        return self._euler[p]

    def check_verify(self, text: str, code: int, sieve_only: bool) -> set[int]:
        """Primes whose `verify --format csv` row is wrong or missing."""
        if code not in (0, 1):
            return set(self.primes)
        try:
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["p", "case", "A", "claimed", "distinct", "verdict"]:
                return set(self.primes)
            got = {int(r[0]): (r[1], int(r[2]), int(r[3]), int(r[4]), r[5]) for r in rows[1:]}
        except (IndexError, ValueError):
            return set(self.primes)
        failed = set(got) ^ set(self.primes)
        violation = False
        for p in self.primes:
            if p not in got:
                continue
            case, a, claimed, distinct, verdict = got[p]
            ok = case == ("Case1" if p % 8 == 3 else "Case2") and a > 0 and a % 2 == 1
            if sieve_only:
                ok = ok and (claimed, distinct, verdict) == (0, 0, "SieveOnly")
            elif self.digest is not None:
                ok = ok and self.digest.get(p) == (claimed, distinct, verdict)
            if p in self.sample:
                ok = ok and a == self._a(p)
            violation = violation or verdict == "BoundViolation"
            if not ok:
                failed.add(p)
        if code != int(violation):
            failed.update(self.primes)
        return failed

    def check_identity(self, text: str, code: int) -> set[int]:
        """Primes the `identity` sweep reported as failing, or all on a bad summary.

        The bands never reach p = 3, which `identity` skips.
        """
        expected = self.primes
        lines = text.strip().splitlines()
        m = _IDENTITY_TAIL.match(lines[-1]) if lines else None
        if m is None or code not in (0, 1):
            return set(expected)
        if (int(m[1]), int(m[2]), int(m[3])) != (len(expected), self.lo, self.hi):
            return set(expected)
        if int(m[4]) == 0 and code == 0:
            return set()
        bad = {int(f[1]) for f in map(_FAILURE_LINE.match, lines) if f}
        return bad or set(expected)


def record_digest(lo: int, hi: int, path: Path = DIGEST) -> None:
    """Write the audit findings of `verify` over [lo, hi] as the reference digest."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from contextlib import redirect_stdout

    from halfsum.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--from", str(lo), "--to", str(hi), "--format", "csv", "--jobs", "2"])
    if code not in (0, 1):
        raise SystemExit(f"verify exited {code}")
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    if [int(r[0]) for r in rows] != primes_3mod4(lo, hi):
        raise SystemExit("verify did not sweep exactly the primes = 3 mod 4")
    with open(path, "w", newline="") as fh:
        fh.write(f"# halfsum verify --from {lo} --to {hi}: claimed, distinct, verdict per prime\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "claimed", "distinct", "verdict"])
        for p, _case, _a, claimed, distinct, verdict in rows:
            writer.writerow([p, claimed, distinct, verdict])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-digest"]:
        raise SystemExit("usage: python3 perfbench/oracle.py --record-digest")
    from workloads import WORKLOADS

    record_digest(*WORKLOADS["audit_band"].window)
