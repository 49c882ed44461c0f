"""Benchmark for halfsum range sweeps, run through halfsum.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the band the seed picks is swept repeatedly for S seconds
and the end-to-end metrics are reported as medians over the sweeps. With
--trace 1 untraced and traced sweeps alternate (traced ones at --jobs 1)
and the per-layer metrics are reported per sweep. Every sweep's output is
checked against perfbench/oracle.py after the timed region. The last line
of standard output is the JSON result. See perfbench/README.md.

`--selftest` instead corrupts real outputs and checks the oracle rejects
each corruption.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fewest sweeps per run, even when one sweep outlasts --seconds.
MIN_SWEEPS = 3
MIN_ROUNDS = 2
# Set-up is timed in this many fresh interpreters and the median reported.
SETUP_SAMPLES = 7


def load_program() -> dict:
    """Import halfsum from this checkout's src/ and return its layer modules."""
    if not (SRC / "halfsum" / "cli.py").is_file():
        print(f"error: no halfsum sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import halfsum.cli

    if Path(halfsum.__file__).resolve().parent != SRC / "halfsum":
        print(f"error: imported halfsum from {halfsum.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    from spans import LAYERS

    return {name: sys.modules[f"halfsum.{name}"] for name in LAYERS}


@dataclass
class Sweep:
    wall: float
    cpu: float
    children_cpu: float
    code: int
    out: str


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def sweep(main, argv: list[str]) -> Sweep:
    """One call of halfsum's main; CPU includes pool workers reaped during it."""
    out = io.StringIO()
    # Start every sweep from a collected heap, as a fresh command would.
    gc.collect()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    wall = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    kids = _cpu(kids1) - _cpu(kids0)
    return Sweep(wall, _cpu(self1) - _cpu(self0) + kids, kids, code, out.getvalue())


def check(workload, oracle, s: Sweep) -> set[int]:
    if workload.command == "identity":
        return oracle.check_identity(s.out, s.code)
    return oracle.check_verify(s.out, s.code, sieve_only="--fast" in workload.flags)


def setup_probe(workload, seed: int) -> None:
    """Time what a run needs before its first sweep, in this fresh interpreter."""
    t0 = perf_counter()
    import numpy  # noqa: F401

    load_program()
    workload.band(seed)
    print(perf_counter() - t0)


def setup_seconds(workload, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload.name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(main, workload, lo, hi, seconds):
    argv = workload.argv(lo, hi)
    sweeps = []
    stop = perf_counter() + seconds
    while len(sweeps) < MIN_SWEEPS or perf_counter() < stop:
        sweeps.append(sweep(main, argv))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return sweeps, {
        "walls": [s.wall for s in sweeps],
        "cpu_s": (statistics.median(s.cpu for s in sweeps), "s"),
        "peak_rss_mb": (max(own, kids) / 1024, "MB"),
    }


def per_layer(main, mods, workload, lo, hi, seconds, primes):
    from spans import LAYERS, Tracer, import_self_seconds, uninstall

    serial = workload.argv(lo, hi, jobs=1)
    plain, traced, fanout, tracers = [], [], [], []
    stop = perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or perf_counter() < stop:
        plain.append(sweep(main, serial))
        tracer = Tracer()
        undo = tracer.install(mods)
        try:
            traced.append(sweep(tracer.span("cli", main), serial))
        finally:
            uninstall(undo)
        tracers.append(tracer)
        if workload.jobs > 1:
            fanout.append(sweep(main, workload.argv(lo, hi)))

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    def ratio(num, den):
        return med(lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0)

    imports = import_self_seconds(SRC, SETUP_SAMPLES)
    m = {f"{layer}.self_s": (med(lambda t: t.self_s[layer]) + imports[layer], "s") for layer in LAYERS}
    for layer in ("construction", "charsum", "classnum", "floorlemma"):
        m[f"{layer}.calls"] = (med(lambda t: t.calls[layer]), "count")
    counts = (
        "construction.pairs",
        "charsum.squares",
        "arith.symbol_calls",
        "arith.is_prime_calls",
        "classnum.form_candidates",
        "primes.yielded",
    )
    for name in counts:
        m[name] = (med(lambda t: t.counts[name]), "count")
    half_total = sum((p - 1) // 2 for p in primes)
    m["construction.distinct_per_pair"] = (ratio("construction.distinct", "construction.pairs"), "ratio")
    m["charsum.squares_per_prime"] = (med(lambda t: t.counts["charsum.squares"] / half_total), "ratio")
    m["charsum.bytes_computed"] = (
        med(lambda t: 8 * t.counts["charsum.squares"] + t.counts["charsum.table_bytes"]),
        "B",
    )
    m["arith.validations_per_symbol"] = (ratio("arith.is_prime_calls", "arith.symbol_calls"), "ratio")
    m["classnum.forms_per_candidate"] = (ratio("classnum.forms", "classnum.form_candidates"), "ratio")
    m["cli.fanout_eff"] = (
        statistics.median(s.children_cpu / (workload.jobs * s.wall) for s in fanout) if fanout else 0.0,
        "ratio",
    )
    m["trace.overhead_s"] = (
        statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in plain),
        "s",
    )
    return plain + traced + fanout, m


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    lo, hi = workload.band(args.seed)
    mods = load_program()
    main = mods["cli"].main
    from oracle import Oracle, load_digest

    digest = load_digest() if workload.name == "audit_band" else None
    oracle = Oracle(lo, hi, args.seed, digest)
    expected = oracle.primes

    # Untimed warm-up on a tiny range finishes lazy imports (the process pool).
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(workload.argv(101, 301))

    if args.trace:
        sweeps, metrics = per_layer(main, mods, workload, lo, hi, args.seconds, expected)
    else:
        sweeps, metrics = end_to_end(main, workload, lo, hi, args.seconds)
        walls = metrics.pop("walls")

    failed = sum(len(check(workload, oracle, s)) for s in sweeps)
    attempted = len(expected) * len(sweeps)

    if not args.trace:
        metrics["primes_per_s"] = (len(expected) / statistics.median(walls), "1/s")
        metrics["setup_s"] = (setup_seconds(workload, args.seed), "s")

    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "range": [lo, hi],
        "argv": workload.argv(lo, hi),
        "primes_per_sweep": len(expected),
        "sweeps": len(sweeps),
        "trace": args.trace,
    }
    print("env " + json.dumps(env))
    print(f"failed {failed} of {attempted} primes (failed_ratio {failed / attempted})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def selftest() -> int:
    """Feed the oracle real outputs and corrupted copies; every corruption must fail."""
    import re

    from oracle import Oracle, load_digest

    main = load_program()["cli"].main
    cases = []
    for workload, lo, hi in ((WORKLOADS["audit_band"], 21000, 21400), (WORKLOADS["identity_small"], 8000, 8100)):
        oracle = Oracle(lo, hi, seed=0, digest=load_digest(), samples=len(range(lo, hi)))
        s = sweep(main, workload.argv(lo, hi))
        bad = {"exit code 2": Sweep(0, 0, 0, 2, s.out)}
        if workload.command == "verify":
            rows = s.out.splitlines(keepends=True)
            bad["row dropped"] = Sweep(0, 0, 0, s.code, "".join(rows[:2] + rows[3:]))
            for field, new in ((2, "{}"), (3, "{}"), (4, "{}"), (5, "Verified")):
                cells = rows[1].rstrip("\n").split(",")
                cells[field] = new.format(int(cells[field]) + 2) if new == "{}" else new
                out = "".join(rows[:1] + [",".join(cells) + "\n"] + rows[2:])
                bad[f"column {field} changed"] = Sweep(0, 0, 0, s.code, out)
        else:
            bad["failures reported"] = Sweep(0, 0, 0, 1, s.out.replace("failures: 0", "failures: 1"))
            bad["count off by one"] = Sweep(
                0, 0, 0, 0, re.sub(r"checked for (\d+)", lambda m: f"checked for {int(m[1]) - 1}", s.out)
            )
        cases.append((workload.name, "real output", s, False, workload, oracle))
        cases += [(workload.name, k, v, True, workload, oracle) for k, v in bad.items()]
    ok = True
    for name, label, s, should_fail, workload, oracle in cases:
        caught = bool(check(workload, oracle, s))
        ok = ok and caught == should_fail
        print(f"{name:16} {label:18} {'rejected' if caught else 'accepted'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.seed)
        return 0
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
