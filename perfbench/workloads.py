"""The four sweep workloads and how a seed places each band in its window.

A band is a run of a fixed number of consecutive primes p = 3 mod 4, so
every sweep checks the same number of primes whatever the seed. Each
window holds about half as many primes again as its band: per-prime cost
grows with p in every module, and this keeps the cost gap between seeds
near 1% while the seed still changes which primes are swept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    window: tuple[int, int]
    primes: int
    jobs: int
    flags: tuple[str, ...] = ()

    def band(self, seed: int) -> tuple[int, int]:
        """The band [lo, hi] spanning the run of primes the seed picks in the window."""
        from oracle import primes_3mod4

        found = primes_3mod4(*self.window)
        first = random.Random(f"{self.name}:{seed}").randrange(len(found) - self.primes + 1)
        return found[first], found[first + self.primes - 1]

    def argv(self, lo: int, hi: int, jobs: int | None = None) -> list[str]:
        """Arguments for halfsum.cli.main; jobs overrides the workload's own."""
        argv = [self.command, "--from", str(lo), "--to", str(hi), *self.flags]
        if self.command == "verify":
            argv += ["--format", "csv", "--jobs", str(jobs or self.jobs)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # Full construction audit near 2*10^4 with --jobs 2: construction does
        # nearly all the work, and the cli process fan-out is only here.
        Workload("audit_band", "verify", window=(21000, 22700), primes=56, jobs=2),
        # Sieve-only rows near 4*10^6: charsum.half_sum_sieve does the work and
        # construction is skipped.
        Workload(
            "sieve_band", "verify", window=(4000000, 4001500), primes=32, jobs=1, flags=("--fast", "0")
        ),
        # Below the 10^4 direct-loop cutoff of half_sum: arith symbols, each
        # re-running Miller-Rabin, dominate and classnum is ~1%.
        Workload("identity_small", "identity", window=(8000, 8300), primes=10, jobs=1),
        # Same entry point just above 10^6: classnum.reduced_forms dominates and
        # arith is negligible, so a change trading one for the other shows.
        Workload("identity_large", "identity", window=(1000000, 1000500), primes=12, jobs=1),
    )
}
