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
verification, 2 usage, input or I/O error, a resource limit or a failed
allocation.

verify and identity run through one sweep, which checks the range once
and reads primes one sieve segment at a time; identity counts the reduced
forms of a whole segment's primes in one columnar pass. verify --jobs N
runs the sweep in this process for its first tenth of a second, in slices
of at most 8 primes, and maps the rest on one pool of at most N workers,
no more than chunks or usable CPUs; a shorter sweep, one whose rest would
take less than that, or one with a single usable CPU, starts no process.
Output is deterministic: identical invocations produce byte-identical
JSON/CSV regardless of --jobs, so wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from collections import Counter
from contextlib import AbstractContextManager, ExitStack, contextmanager, nullcontext
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, TextIO

from . import __version__, primes
from .arith import OddPrime, legendre_euler, legendre_reciprocity
from .charsum import _L_TERMS_LIMIT, half_sum_direct, half_sum_sieve
from .classnum import class_number_character_sum, identity_checks, reduced_forms_count
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

# lemma checks each value in pure Python, about 3 us apiece on a 2-vCPU x86
# host, so each of its two counts is capped at about half a minute of work.
_LEMMA_LIMIT = 10**7


class RangeRow(NamedTuple):
    """One prime's result inside a verification sweep."""

    p: int
    case: str
    a_value: int
    claimed: int
    distinct: int
    verdict: str


def _check_prime(p: int, fast_bound: Optional[int], excerpts: bool):
    """Verify one prime: the A(p) > 0 check plus the construction audit.

    Returns (row, violations, anomaly) where anomaly is None or, for a
    prime with unexpected duplicates, a (p, ledger excerpt) pair whose
    excerpt is built only if excerpts is set (text and JSON print it, CSV
    does not) and is empty otherwise. Above fast_bound the construction
    audit is skipped, A(p) comes from the sieve and the row verdict is
    SieveOnly; otherwise A(p) is the audit's, counted from the residue
    flags it reads.
    The prime is validated once here and passed on validated, and its
    residues are squared at most once either way.
    """
    op = OddPrime(p)
    if fast_bound is not None and p > fast_bound:
        report, a_value = None, half_sum_sieve(op).a_value
    else:
        report = build_report(op)
        a_value = report.a_value
    violations: list[tuple[int, str, str]] = []
    if a_value <= 0:
        violations.append((p, "TheoremViolation", f"A({p}) = {a_value} <= 0"))

    if report is None:
        row = RangeRow(p, classify_case(op), a_value, 0, 0, "SieveOnly")
        return row, violations, None

    if report.verdict == BOUND_VIOLATION:
        violations.append((p, BOUND_VIOLATION, report.reason))
    anomaly, count = None, report.unexpected_count
    if count:
        first = report.unexpected_duplicates[:3] if excerpts else []
        parts = [f"{e.element} claimed by {', '.join(e.sites)}" for e in first]
        if excerpts and count > 3:
            parts.append(f"and {count - 3} more")
        anomaly = (p, "; ".join(parts))
    row = RangeRow(
        p,
        report.case,
        a_value,
        report.claimed_total,
        report.distinct_qr_total,
        report.verdict,
    )
    return row, violations, anomaly


def _check_primes(ps: list[int], fast_bound: Optional[int], excerpts: bool) -> list:
    """_check_prime for each prime of ps, in order: verify's sweep work."""
    return [_check_prime(p, fast_bound, excerpts) for p in ps]


def _identity_records(ps: list[int]) -> list:
    """identity's sweep work: the identity records of ps in order, p = 3 skipped."""
    return identity_checks([p for p in ps if p != 3])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A --jobs sweep runs in this process until it has run this many seconds, and
# only then opens its pool. Each worker is a fresh fork that must touch its
# pages and caches again: two cost about 50 ms of CPU on a 2-vCPU host. So a
# sweep that opens a pool has already done twice the work the pool costs, and
# a long sweep gives up at most half the gate in wall time; when less than
# the gate's worth is left in the range's last window, no pool opens. On that
# host (Python 3.11, cli.main in one warm process, verify --format csv,
# medians of 15 alternating calls), wall / CPU in ms at --jobs 1, at --jobs 2
# with this gate, and at --jobs 2 with a pool from the first prime:
#   audits of [21107, 22091]    21 / 21     21 / 22     34 / 55
#   audits of [3, 10^4]        189 / 188   192 / 192   165 / 312
#   audits of [3, 2*10^4]      411 / 411   293 / 458   257 / 478
#   audits of [3, 3*10^4]      565 / 564   475 / 795   409 / 768
_POOL_AFTER = 0.1

# Until the gate trips, work gets the primes in slices of at most this many,
# so it can batch them, and the clock is read between slices.
_GATE_SLICE = 8


def _sweep(lo: int, hi: int, jobs: int, work: Callable[[list[int]], list]) -> Iterator:
    """The results of work over every prime p = 3 mod 4 in [lo, hi], in ascending p.

    work takes a list of ascending primes and returns their results in
    order, so it may batch them; it must be picklable for a pool. The
    results yielded are those lists, chained. The range, jobs and the
    prime-sieve limit are checked at the call, before the caller opens its
    output. Primes are then read as the result is iterated, one window of
    primes._SEGMENT integers at a time. At one job, work gets each window
    whole. Above one job the sweep runs in this process, work getting
    slices of at most _GATE_SLICE primes, until it has run _POOL_AFTER
    seconds, so a short sweep starts no process; nor does one whose last
    window, at the time per prime so far, has less than that left. Then the
    rest of the current window, and every later window, is split into about
    8 * jobs chunks and mapped on one process pool, work getting each chunk,
    a window ahead of the results yielded, so the workers do not wait at the
    end of each window.
    """
    if lo > hi:
        raise DomainError(f"--from {lo} exceeds --to {hi}")
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    primes.check_bound(lo, hi)
    window = primes._SEGMENT

    def results():
        with ExitStack() as stack:
            pool = None
            ahead = ()
            ran = 0
            started = time.perf_counter()
            for start in range(lo, hi + 1, window):
                batch = primes_in_range(start, min(start + window - 1, hi), 3, 4)
                if jobs == 1:
                    yield from work(batch)
                    continue
                if pool is None:
                    done = 0
                    while done < len(batch) and time.perf_counter() - started < _POOL_AFTER:
                        yield from work(batch[done : done + _GATE_SLICE])
                        done += _GATE_SLICE
                    ran += len(batch[:done])
                    batch = batch[done:]
                    # The executor may start all its workers at once, so never
                    # ask for more than there are chunks to hand out, at least
                    # min(jobs, primes left), or usable CPUs, and start none for
                    # one worker. The pool keeps the count it opens with: a
                    # window is full whenever another follows it, so that count
                    # is short only when the gate trips within jobs primes of a
                    # window's end. The primes left in the range's last window
                    # run here too if, at the time per prime so far, they would
                    # take less than the gate.
                    workers = min(jobs, len(batch), _usable_cpus())
                    elapsed = time.perf_counter() - started
                    if workers < 2 or start + window > hi and len(batch) * elapsed < ran * _POOL_AFTER:
                        yield from work(batch)
                        continue
                    from concurrent.futures import ProcessPoolExecutor

                    pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                size = max(1, -(-len(batch) // (jobs * 8)))
                chunks = [batch[i : i + size] for i in range(0, len(batch), size)]
                mapped = chain.from_iterable(pool.map(work, chunks))
                yield from ahead
                ahead = mapped
            yield from ahead

    return results()


def _write_summary(args, rows: list[RangeRow], violations, anomalies, out: TextIO) -> None:
    """The sweep report over [args.lo, args.hi] in args.format, ordered by p."""
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p", "case", "A", "claimed", "distinct", "verdict"])
        writer.writerows(rows)
        return
    counts = Counter(r.case for r in rows)
    if args.format == "json":
        summary = {
            "schema": 1,
            "lo": args.lo,
            "hi": args.hi,
            "primes_checked": len(rows),
            "case1_count": counts[CASE_ONE],
            "case2_count": counts[CASE_TWO],
            "small_count": counts[SMALL_REGIME],
            "rows": rows,
            "violations": violations,
            "dedup_anomalies": anomalies,
        }
        json.dump(summary, out, indent=2)
        out.write("\n")
        return
    out.write(
        f"range [{args.lo}, {args.hi}]: {len(rows)} primes = 3 mod 4 checked "
        f"(Case1 {counts[CASE_ONE]}, Case2 {counts[CASE_TWO]}, "
        f"SmallRegime {counts[SMALL_REGIME]})\n"
    )
    out.write(f"violations: {len(violations)}\n")
    for p, verdict, detail in violations[:50]:
        out.write(f"  p={p} [{verdict}] {detail}\n")
    if len(violations) > 50:
        out.write(f"  ... and {len(violations) - 50} more\n")
    label = "dedup anomalies (strict)" if args.strict else "dedup anomalies"
    out.write(f"{label}: {len(anomalies)}\n")
    for p, excerpt in anomalies[:20]:
        out.write(f"  p={p}: {excerpt}\n")
    if len(anomalies) > 20:
        out.write(f"  ... and {len(anomalies) - 20} more\n")


@contextmanager
def _output(path: Optional[str]) -> Iterator[Callable[[], AbstractContextManager[TextIO]]]:
    """An opener of the --out file for writing, or of stdout when no path is given.

    The file is opened for append on entry, so an unwritable path fails
    before any work, and an existing file keeps its bytes until the opener
    is called, once the output is ready: a command that stops before then
    leaves it as it was. The append handle stays open until exit, so a
    pipe's reader sees a writer throughout.
    """
    if path is None:
        yield partial(nullcontext, sys.stdout)
        return
    with open(path, "a"):
        yield partial(open, path, "w")


def cmd_symbol(args) -> int:
    op = OddPrime(args.p)
    value = legendre_euler(args.a, op)
    check = legendre_reciprocity(args.a, op)
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
    method = half_sum_sieve if args.method == "sieve" else half_sum_direct
    rec = method(args.p)
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
            f"contributed {f.distinct_contribution}, pairs {f.pairs}"
        )
        failed = len(f.failed_pairs)
        if failed:
            line += f", FAILED {failed}"
        out.write(line + "\n")
    if report.dedup_ledger:
        out.write("dedup ledger:\n")
        for e in report.dedup_ledger:
            mark = " (expected overlap)" if e.expected else ""
            out.write(f"  {e.element} claimed by {', '.join(e.sites)}{mark}\n")
    out.write(f"verdict: {report.verdict}\n")


def cmd_construct(args) -> int:
    report = build_report(args.p)
    with _output(args.out) as output, output() as out:
        if args.json:
            # json writes as it encodes; default lists each witness view it reaches.
            json.dump(report.to_json_dict(), out, indent=2, default=list)
            out.write("\n")
        else:
            _render_construct_text(report, out)
    return 0 if report.verdict == VERIFIED else 1


def cmd_verify(args) -> int:
    """Sweep [args.lo, args.hi] and report it in args.format; exit 1 on a violation.

    A CSV sweep builds no ledger excerpt, which only text and JSON print.
    """
    check = partial(_check_primes, fast_bound=args.fast, excerpts=args.format != "csv")
    results = _sweep(args.lo, args.hi, args.jobs, check)
    if args.fast is not None and args.fast < 0:
        raise DomainError(f"--fast must be >= 0, got {args.fast}")
    started = time.monotonic()
    with _output(args.out) as output:
        rows, violations, anomalies = [], [], []
        for row, found, anomaly in results:
            rows.append(row)
            violations.extend(found)
            if anomaly is not None:
                anomalies.append(anomaly)
        if args.strict:
            violations.extend((p, DEDUP_ANOMALY, excerpt) for p, excerpt in anomalies)
        with output() as out:
            _write_summary(args, rows, violations, anomalies, out)
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return 1 if violations else 0


def cmd_classnum(args) -> int:
    methods = (("forms", reduced_forms_count), ("charsum", class_number_character_sum))
    op = OddPrime(args.p)
    # h(-p) by each method asked for, in that order: one value, or two to agree.
    h = [count(op) for name, count in methods if args.method in (name, "both")]
    if h[0] != h[-1]:
        print(f"method disagreement at p={args.p}: forms {h[0]}, charsum {h[1]}", file=sys.stderr)
        return 1
    print(f"h(-{args.p}) = {h[0]}")
    return 0


def cmd_identity(args) -> int:
    # A prime's failure is printed before its --l-check can stop the command.
    results = _sweep(args.lo, args.hi, 1, _identity_records)
    if args.l_terms is not None and not 1 <= args.l_terms <= _L_TERMS_LIMIT:
        raise DomainError(f"--l-terms must be in [1, {_L_TERMS_LIMIT}], got {args.l_terms}")
    if args.l_terms is not None and not args.l_check:
        raise DomainError("--l-terms needs --l-check")
    failures = 0
    checked = 0
    for rec in results:
        p = rec.p
        checked += 1
        if not rec.ok:
            failures += 1
            print(
                f"p={p}: h_forms={rec.h_forms} h_charsum={rec.h_charsum} "
                f"A={rec.identity_lhs} rhs={rec.identity_rhs}"
            )
        if args.l_check:
            terms = max(args.l_terms or 100 * p, p)
            lrec = rec.l_estimate(terms)
            if not lrec.within_tolerance:
                failures += 1
                print(
                    f"p={p}: L estimate {lrec.l_partial:.9f} misses "
                    f"{lrec.l_exact:.9f} by more than {lrec.tolerance:.2e} "
                    f"at {lrec.terms} terms"
                )
    if args.lo <= 3 <= args.hi:
        print("p=3 skipped (excluded from class-number operations)")
    print(f"identity checked for {checked} primes in [{args.lo}, {args.hi}]; failures: {failures}")
    return 1 if failures else 0


def cmd_lemma(args) -> int:
    for flag, value in (("--check-up-to", args.check_up_to), ("--rationals", args.rationals)):
        if value is not None and value < 0:
            raise DomainError(f"{flag} must be >= 0, got {value}")
        if value is not None and value > _LEMMA_LIMIT:
            raise ResourceLimitError(f"{flag} {value} exceeds the lemma limit {_LEMMA_LIMIT}")
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and reused.

    Each parse fills a fresh namespace and the parser keeps no state
    between parses, so main() builds the seven subparsers once per process.
    Every caller gets the same parser and must not change it.
    """
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
        "--method", choices=("direct", "sieve"), default="sieve"
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
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="map the sweep on at most N worker processes; a short sweep runs in this process",
    )
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
        help="series length for --l-check (default 100p, raised to p if below; at most 2^35)",
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
        help="number of random rationals to draw (default N, at most 10^7)",
    )
    p_lemma.add_argument("--seed", type=int, default=20250814)
    p_lemma.set_defaults(func=cmd_lemma)

    return parser


def _pool_errors() -> tuple:
    """BrokenExecutor, once a --jobs sweep has imported the pool that raises it."""
    futures = sys.modules.get("concurrent.futures")
    return (futures.BrokenExecutor,) if futures else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ResourceLimitError, OSError, *_pool_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
