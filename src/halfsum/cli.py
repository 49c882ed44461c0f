"""Command-line front end.

Subcommands:

  symbol     Legendre symbol by both methods, cross-checked
  asum       half-interval character sum A(p)
  construct  full construction audit for one prime
  verify     range sweep: construction audit plus independent A(p) > 0 check
  classnum   class number h(-p) by two methods
  identity   A(p) = (2 - (2/p)) * h(-p) over a range
  lemma      exact floor-series identity check

Exit codes: 0 all checks passed, 1 a mathematical claim failed
verification, 2 usage, input or I/O error.

Output is deterministic: identical invocations produce byte-identical
JSON/CSV regardless of --jobs, so wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple, Optional, TextIO

from . import __version__
from .arith import OddPrime, legendre_euler, legendre_reciprocity
from .charsum import half_sum, half_sum_sieve
from .classnum import (
    class_number_character_sum,
    identity_check,
    l_value_estimate,
    reduced_forms_count,
)
from .construction import (
    BOUND_VIOLATION,
    CASE_ONE,
    CASE_TWO,
    DEDUP_ANOMALY,
    SMALL_REGIME,
    VERIFIED,
    build_report,
    classify_case,
)
from .errors import DomainError, ResourceLimitError
from .floorlemma import floor_half_series
from .primes import primes_in_range

_RATIONAL_BOUND = 10**9


class RangeRow(NamedTuple):
    """One prime's result inside a verification sweep."""

    p: int
    case: str
    a_value: int
    claimed: int
    distinct: int
    verdict: str


@dataclass
class RangeSummary:
    """Aggregate of a verification sweep, ordered by p."""

    lo: int
    hi: int
    primes_checked: int
    case1_count: int
    case2_count: int
    small_count: int
    rows: list[RangeRow]
    violations: list[tuple[int, str, str]]
    dedup_anomalies: list[tuple[int, str]]
    wall_time_seconds: float


def _check_prime(p: int, fast_bound: Optional[int]):
    """Verify one prime: independent sieve check plus construction audit.

    Returns (row, violations, anomaly) where anomaly is None or a
    (p, ledger excerpt) pair. Above fast_bound the construction audit is
    skipped and the row verdict is SieveOnly. The prime is validated once
    here and passed on validated.
    """
    op = OddPrime(p)
    rec = half_sum_sieve(op)
    violations: list[tuple[int, str, str]] = []
    if rec.a_value <= 0:
        violations.append((p, "TheoremViolation", f"A({p}) = {rec.a_value} <= 0"))

    if fast_bound is not None and p > fast_bound:
        row = RangeRow(p, classify_case(op), rec.a_value, 0, 0, "SieveOnly")
        return row, violations, None

    report = build_report(op)
    if report.verdict == BOUND_VIOLATION:
        violations.append((p, BOUND_VIOLATION, _violation_detail(report)))
    anomaly = None
    unexpected = report.unexpected_duplicates
    if unexpected:
        anomaly = (p, _ledger_excerpt(unexpected))
    row = RangeRow(
        p,
        report.case,
        rec.a_value,
        report.claimed_total,
        report.distinct_qr_total,
        report.verdict,
    )
    return row, violations, anomaly


def _violation_detail(report) -> str:
    failed = report.failed_pairs
    if failed:
        w = failed[0]
        half = (report.p - 1) // 2
        return (
            f"pair ({w.candidate}, {w.partner}) in {w.rule_id}: "
            f"no residue lands in [1, {half}]"
        )
    if not report.threshold_met:
        return (
            f"distinct {report.distinct_qr_total} < "
            f"threshold {report.required_threshold}"
        )
    for f in report.families:
        if f.distinct_contribution < f.claimed_bound:
            return (
                f"family {f.family_id} contributed "
                f"{f.distinct_contribution} < bound {f.claimed_bound}"
            )
    return "A(p) <= 0" if report.case == SMALL_REGIME else "unspecified"


def _ledger_excerpt(entries, limit: int = 3) -> str:
    parts = [
        f"{e.element} claimed by {', '.join(e.sites)}" for e in entries[:limit]
    ]
    extra = len(entries) - limit
    if extra > 0:
        parts.append(f"and {extra} more")
    return "; ".join(parts)


def _verify_chunk(chunk: list[int], fast_bound: Optional[int]):
    return [_check_prime(p, fast_bound) for p in chunk]


def _run_sweep(lo: int, hi: int, jobs: int, fast_bound: Optional[int]) -> RangeSummary:
    started = time.monotonic()
    primes = primes_in_range(lo, hi, 3, 4)

    if jobs <= 1 or len(primes) < 2:
        results = _verify_chunk(primes, fast_bound)
    else:
        size = max(1, -(-len(primes) // (jobs * 8)))
        chunks = [primes[i : i + size] for i in range(0, len(primes), size)]
        worker = partial(_verify_chunk, fast_bound=fast_bound)
        results = []
        # The executor may start all its workers at once, so never ask for
        # more than there are chunks to hand out.
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            for part in pool.map(worker, chunks):
                results.extend(part)

    rows = []
    violations: list[tuple[int, str, str]] = []
    anomalies: list[tuple[int, str]] = []
    counts = {CASE_ONE: 0, CASE_TWO: 0, SMALL_REGIME: 0}
    for row, v, anomaly in results:
        rows.append(row)
        violations.extend(v)
        if anomaly is not None:
            anomalies.append(anomaly)
        counts[row.case] += 1

    return RangeSummary(
        lo=lo,
        hi=hi,
        primes_checked=len(rows),
        case1_count=counts[CASE_ONE],
        case2_count=counts[CASE_TWO],
        small_count=counts[SMALL_REGIME],
        rows=rows,
        violations=violations,
        dedup_anomalies=anomalies,
        wall_time_seconds=time.monotonic() - started,
    )


def _summary_to_json(s: RangeSummary) -> dict:
    return {
        "schema": 1,
        "lo": s.lo,
        "hi": s.hi,
        "primes_checked": s.primes_checked,
        "case1_count": s.case1_count,
        "case2_count": s.case2_count,
        "small_count": s.small_count,
        "rows": [list(r) for r in s.rows],
        "violations": [list(v) for v in s.violations],
        "dedup_anomalies": [list(a) for a in s.dedup_anomalies],
    }


def _write_summary(s: RangeSummary, fmt: str, out: TextIO, strict: bool) -> None:
    if fmt == "json":
        json.dump(_summary_to_json(s), out, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p", "case", "A", "claimed", "distinct", "verdict"])
        for r in s.rows:
            writer.writerow(list(r))
        return
    out.write(
        f"range [{s.lo}, {s.hi}]: {s.primes_checked} primes = 3 mod 4 checked "
        f"(Case1 {s.case1_count}, Case2 {s.case2_count}, "
        f"SmallRegime {s.small_count})\n"
    )
    out.write(f"violations: {len(s.violations)}\n")
    for p, verdict, detail in s.violations[:50]:
        out.write(f"  p={p} [{verdict}] {detail}\n")
    if len(s.violations) > 50:
        out.write(f"  ... and {len(s.violations) - 50} more\n")
    label = "dedup anomalies (strict)" if strict else "dedup anomalies"
    out.write(f"{label}: {len(s.dedup_anomalies)}\n")
    for p, excerpt in s.dedup_anomalies[:20]:
        out.write(f"  p={p}: {excerpt}\n")
    if len(s.dedup_anomalies) > 20:
        out.write(f"  ... and {len(s.dedup_anomalies) - 20} more\n")


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The --out file opened for writing, or stdout when no path is given."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w") as out:
        yield out


def cmd_symbol(args) -> int:
    value = legendre_euler(args.a, args.p)
    check = legendre_reciprocity(args.a, args.p)
    if value != check:
        print(
            f"method disagreement at ({args.a}/{args.p}): "
            f"euler {value}, reciprocity {check}",
            file=sys.stderr,
        )
        return 1
    print(f"{value:+d}" if value else "0")
    return 0


def cmd_asum(args) -> int:
    rec = half_sum(args.p, method=args.method)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "p": rec.p,
                    "qr_count": rec.qr_count,
                    "nqr_count": rec.nqr_count,
                    "a_value": rec.a_value,
                    "method": rec.method,
                }
            )
        )
    else:
        print(f"A({rec.p}) = {rec.a_value}")
    return 0


def _render_construct_text(report, out: TextIO) -> None:
    out.write(f"p = {report.p} ({report.case}, k = {report.k})\n")
    out.write(
        f"claimed total: {report.claimed_total}   "
        f"threshold: {report.required_threshold}   "
        f"distinct residues: {report.distinct_qr_total}\n"
    )
    for f in report.families:
        tag = f.family_id if f.subfamily is None else f"{f.family_id}[j={f.subfamily}]"
        line = (
            f"family {tag}: bound {f.claimed_bound}, "
            f"contributed {f.distinct_contribution}, pairs {len(f.witnesses)}"
        )
        if f.failed_pairs:
            line += f", FAILED {len(f.failed_pairs)}"
        out.write(line + "\n")
    if report.dedup_ledger:
        out.write("dedup ledger:\n")
        for e in report.dedup_ledger:
            mark = " (expected overlap)" if e.expected else ""
            out.write(f"  {e.element} claimed by {', '.join(e.sites)}{mark}\n")
    out.write(f"verdict: {report.verdict}\n")


def cmd_construct(args) -> int:
    report = build_report(args.p)
    with _output(args.out) as out:
        if args.json:
            json.dump(report.to_json_dict(), out, indent=2)
            out.write("\n")
        else:
            _render_construct_text(report, out)
    return 0 if report.verdict == VERIFIED else 1


def cmd_verify(args) -> int:
    if args.lo > args.hi:
        print(f"error: --from {args.lo} exceeds --to {args.hi}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    with _output(args.out) as out:
        summary = _run_sweep(args.lo, args.hi, args.jobs, args.fast)
        if args.strict:
            summary.violations.extend(
                (p, DEDUP_ANOMALY, excerpt) for p, excerpt in summary.dedup_anomalies
            )
        _write_summary(summary, args.format, out, args.strict)
    print(f"wall time: {summary.wall_time_seconds:.2f}s", file=sys.stderr)
    return 1 if summary.violations else 0


def cmd_classnum(args) -> int:
    if args.method in ("forms", "both"):
        h_forms = reduced_forms_count(args.p)
    if args.method in ("charsum", "both"):
        h_charsum = class_number_character_sum(args.p)
    if args.method == "forms":
        print(f"h(-{args.p}) = {h_forms}")
        return 0
    if args.method == "charsum":
        print(f"h(-{args.p}) = {h_charsum}")
        return 0
    if h_forms != h_charsum:
        print(
            f"method disagreement at p={args.p}: "
            f"forms {h_forms}, charsum {h_charsum}",
            file=sys.stderr,
        )
        return 1
    print(f"h(-{args.p}) = {h_forms}")
    return 0


def cmd_identity(args) -> int:
    if args.lo > args.hi:
        print(f"error: --from {args.lo} exceeds --to {args.hi}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    skipped_three = False
    for p in primes_in_range(args.lo, args.hi, 3, 4):
        if p == 3:
            skipped_three = True
            continue
        op = OddPrime(p)
        rec = identity_check(op)
        checked += 1
        if not rec.ok:
            failures += 1
            print(
                f"p={p}: h_forms={rec.h_forms} h_charsum={rec.h_charsum} "
                f"A={rec.identity_lhs} rhs={rec.identity_rhs}"
            )
        if args.l_check:
            terms = max(args.l_terms if args.l_terms else 100 * p, p)
            lrec = l_value_estimate(op, terms)
            if not lrec.within_tolerance:
                failures += 1
                print(
                    f"p={p}: L estimate {lrec.l_partial:.9f} misses "
                    f"{lrec.l_exact:.9f} by more than {lrec.tolerance:.2e} "
                    f"at {lrec.terms} terms"
                )
    if skipped_three:
        print("p=3 skipped (excluded from class-number operations)")
    print(f"identity checked for {checked} primes in [{args.lo}, {args.hi}]; failures: {failures}")
    return 1 if failures else 0


def cmd_lemma(args) -> int:
    for flag, value in (("--check-up-to", args.check_up_to), ("--rationals", args.rationals)):
        if value is not None and value < 0:
            print(f"error: {flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    failures = 0
    for x in range(0, args.check_up_to + 1):
        if floor_half_series(x) != x:
            failures += 1
            print(f"x={x}: series {floor_half_series(x)} != floor {x}")
    count = args.rationals if args.rationals is not None else args.check_up_to
    rng = random.Random(args.seed)
    for _ in range(count):
        num = rng.randint(0, _RATIONAL_BOUND)
        den = rng.randint(1, _RATIONAL_BOUND)
        if floor_half_series(Fraction(num, den)) != num // den:
            failures += 1
            print(f"x={num}/{den}: series result differs from floor {num // den}")
    print(
        f"lemma checked for integers 0..{args.check_up_to} "
        f"and {count} random rationals (seed {args.seed}); failures: {failures}"
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfsum",
        description="Verification tools for half-interval quadratic residue counts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_symbol = sub.add_parser("symbol", help="Legendre symbol (a/p) by both methods")
    p_symbol.add_argument("a", type=int)
    p_symbol.add_argument("p", type=int)
    p_symbol.set_defaults(func=cmd_symbol)

    p_asum = sub.add_parser("asum", help="half-interval character sum A(p)")
    p_asum.add_argument("p", type=int)
    p_asum.add_argument(
        "--method", choices=("auto", "direct", "sieve"), default="auto"
    )
    p_asum.add_argument("--json", action="store_true")
    p_asum.set_defaults(func=cmd_asum)

    p_construct = sub.add_parser(
        "construct", help="construction audit for one prime p = 3 mod 4"
    )
    p_construct.add_argument("p", type=int)
    p_construct.add_argument("--json", action="store_true")
    p_construct.add_argument("--out", metavar="FILE")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser(
        "verify", help="sweep a range: construction audits plus A(p) > 0 checks"
    )
    p_verify.add_argument("--from", dest="lo", type=int, required=True)
    p_verify.add_argument("--to", dest="hi", type=int, required=True)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", metavar="FILE")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="treat dedup anomalies as violations",
    )
    p_verify.add_argument(
        "--fast",
        type=int,
        metavar="BOUND",
        help="skip construction audits for primes above BOUND (sieve check only)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_classnum = sub.add_parser("classnum", help="class number h(-p), two methods")
    p_classnum.add_argument("p", type=int)
    p_classnum.add_argument(
        "--method", choices=("forms", "charsum", "both"), default="both"
    )
    p_classnum.set_defaults(func=cmd_classnum)

    p_identity = sub.add_parser(
        "identity", help="check A(p) = (2 - (2/p)) * h(-p) over a range"
    )
    p_identity.add_argument("--from", dest="lo", type=int, required=True)
    p_identity.add_argument("--to", dest="hi", type=int, required=True)
    p_identity.add_argument(
        "--l-check",
        action="store_true",
        help="also check the truncated L(1, chi) estimate per prime",
    )
    p_identity.add_argument(
        "--l-terms",
        type=int,
        metavar="N",
        help="series length for --l-check (default 100p, raised to p if below)",
    )
    p_identity.set_defaults(func=cmd_identity)

    p_lemma = sub.add_parser(
        "lemma", help="exact check of sum floor(x/2^r + 1/2) = floor(x)"
    )
    p_lemma.add_argument("--check-up-to", type=int, required=True, metavar="N")
    p_lemma.add_argument(
        "--rationals",
        type=int,
        metavar="M",
        help="number of random rationals to draw (default N)",
    )
    p_lemma.add_argument("--seed", type=int, default=20250814)
    p_lemma.set_defaults(func=cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
