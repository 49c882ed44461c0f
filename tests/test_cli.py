"""Tests for the command-line interface.

Each test drives main(argv) directly and inspects captured output and
exit codes. Exit contract: 0 all checks passed, 1 a mathematical claim
failed verification, 2 usage error.
"""

import concurrent.futures
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from halfsum import charsum, cli, construction, primes
from halfsum.cli import main
from test_golden import GOLDEN

POOL_AFTER = cli._POOL_AFTER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    # The one line that may differ between identical calls.
    err = re.sub(r"wall time: \S+", "wall time: -", captured.err)
    return code, captured.out, err


class TestSymbol:
    def test_plus_one(self, capsys):
        code, out, _ = run(capsys, "symbol", "2", "7")
        assert code == 0 and out == "+1\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "symbol", "7", "7")
        assert code == 0 and out == "0\n"

    def test_minus_one(self, capsys):
        code, out, _ = run(capsys, "symbol", "3", "7")
        assert code == 0 and out == "-1\n"

    def test_negative_argument(self, capsys):
        code, out, _ = run(capsys, "symbol", "--", "-1", "11")
        assert code == 0 and out == "-1\n"

    def test_composite_modulus(self, capsys):
        code, _, err = run(capsys, "symbol", "2", "9")
        assert code == 2 and "9" in err

    def test_validates_the_prime_once(self, capsys, is_prime_calls):
        # Both methods get the prime the command validated.
        assert run(capsys, "symbol", "2", "7") == (0, "+1\n", "")
        assert is_prime_calls == [7]
        assert run(capsys, "symbol", "2", "9") == (2, "", "error: 9 is not an odd prime\n")

    def test_method_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "legendre_reciprocity", lambda a, p: -1)
        code, out, err = run(capsys, "symbol", "2", "7")
        assert (code, out) == (1, "")
        assert err == "method disagreement at (2/7): euler 1, reciprocity -1\n"


class TestAsum:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "asum", "11")
        assert code == 0 and out == "A(11) = 3\n"

    def test_one_mod_four(self, capsys):
        code, out, _ = run(capsys, "asum", "13")
        assert code == 0 and out == "A(13) = 0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "asum", "11", "--json")
        record = json.loads(out)
        assert code == 0
        assert record == {
            "schema": 1,
            "p": 11,
            "qr_count": 4,
            "nqr_count": 1,
            "a_value": 3,
            "method": "sieve",
        }

    def test_method_flag(self, capsys):
        code, out, _ = run(capsys, "asum", "23", "--method", "sieve", "--json")
        assert code == 0 and json.loads(out)["method"] == "sieve"
        code, out, _ = run(capsys, "asum", "23", "--method", "direct", "--json")
        assert code == 0 and json.loads(out)["method"] == "direct"

    def test_no_auto_method(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["asum", "23", "--method", "auto"])
        assert exc.value.code == 2

    def test_composite(self, capsys):
        code, _, err = run(capsys, "asum", "4")
        assert code == 2 and "4" in err

    @pytest.mark.parametrize("method", ["direct", "sieve"])
    def test_past_the_sieve_limit(self, capsys, monkeypatch, method):
        # Both methods accept the same primes. The limit is lowered so that a
        # lost check fails here at once, not after 5*10^11 symbols at 10^12.
        monkeypatch.setattr(charsum, "_SIEVE_LIMIT", 100)
        assert run(capsys, "asum", "97", "--method", method)[:2] == (0, "A(97) = 0\n")
        code, out, err = run(capsys, "asum", "101", "--method", method)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "sieve limit" in err


class TestConstruct:
    def test_text_output_p43(self, capsys):
        code, out, _ = run(capsys, "construct", "43")
        assert code == 1  # DedupAnomaly, not Verified
        assert "p = 43 (Case1, k = 5)" in out
        assert "claimed total: 11" in out
        assert "threshold: 11" in out
        assert "distinct residues: 9" in out
        assert "4 claimed by C1_F1[h=1], C1_F3[h=0] (expected overlap)" in out
        assert "verdict: DedupAnomaly" in out

    def test_json_output_p47(self, capsys):
        code, out, _ = run(capsys, "construct", "47", "--json")
        report = json.loads(out)
        assert code == 1
        assert report["schema"] == 1
        assert report["p"] == 47
        assert report["claimed_total"] == 13
        assert report["verdict"] == "DedupAnomaly"

    def test_small_regime_verified(self, capsys):
        code, out, _ = run(capsys, "construct", "7")
        assert code == 0
        assert "verdict: Verified" in out

    def test_bound_violation_p107(self, capsys):
        code, out, _ = run(capsys, "construct", "107")
        assert code == 1
        assert "verdict: BoundViolation" in out
        assert "FAILED 1" in out

    def test_wrong_residue_class(self, capsys):
        code, _, err = run(capsys, "construct", "13")
        assert code == 2 and "3 mod 4" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "construct", "43", "--json", "--out", str(target))
        assert code == 1 and out == ""
        assert json.loads(target.read_text())["p"] == 43

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "construct", "43", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(p):
            raise MemoryError

        monkeypatch.setattr(cli, "build_report", exhausted)
        for argv in (("construct", "43"), ("verify", "--from", "3", "--to", "100")):
            assert run(capsys, *argv) == (2, "", "error: out of memory\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_failed_allocation_exits_2(self):
        # The audit of 8388587, just below the construction limit, needs about
        # 100 MB; the child may map only 64 MB more than it has after import.
        script = """
import resource, sys
from halfsum import cli
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))
sys.exit(cli.main(["construct", "8388587"]))
"""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")

    def test_json_memory_per_pair(self, capsys, tmp_path):
        # json writes as it encodes and builds one family's witnesses at a
        # time. Traced peak of the whole command at p = 50051 (12514 pairs):
        # ~196 B per pair, against ~338 B when every witness was listed
        # before the first byte was written.
        target = tmp_path / "report.json"
        pairs = sum(f.pairs for f in construction.build_report(50051).families)
        run(capsys, "construct", "50051", "--json", "--out", str(target))
        tracemalloc.start()
        try:
            code = main(["construct", "50051", "--json", "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and capsys.readouterr() == ("", "")
        assert json.loads(target.read_text())["p"] == 50051
        assert peak / pairs < 260


def usable_cpus(monkeypatch, count):
    """Makes the sweep see count CPUs that this process may run on."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the sweep's process pool with one that maps in this process.

    Returns the pools made, each with the worker count it was asked for
    and the chunk count of each map. No process is started. The pool opens
    at a sweep's first prime, and the sweep sees four usable CPUs.
    """
    monkeypatch.setattr(cli, "_POOL_AFTER", 0)
    usable_cpus(monkeypatch, 4)
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.maps = []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            self.maps.append(len(chunks))
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made


class TestVerify:
    def test_range_3_to_100(self, capsys):
        code, out, _ = run(capsys, "verify", "--from", "3", "--to", "100")
        assert code == 0
        assert "13 primes = 3 mod 4 checked" in out
        assert "violations: 0" in out

    def test_single_prime_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--from", "3", "--to", "3")
        assert code == 0
        assert "1 primes = 3 mod 4 checked" in out

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--from", "32", "--to", "42")
        assert code == 0
        assert "0 primes = 3 mod 4 checked" in out
        assert "violations: 0" in out

    def test_violation_at_107(self, capsys):
        code, out, _ = run(capsys, "verify", "--from", "100", "--to", "150")
        assert code == 1
        assert "p=107 [BoundViolation]" in out
        assert "pair (28, 56) in C1_F3" in out

    def test_strict_flags_anomalies(self, capsys):
        code, _, _ = run(capsys, "verify", "--from", "33", "--to", "50")
        assert code == 0
        code, _, _ = run(capsys, "verify", "--from", "33", "--to", "50", "--strict")
        assert code == 1

    def test_fast_skips_construction(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--from",
            "100",
            "--to",
            "150",
            "--fast",
            "100",
            "--format",
            "csv",
        )
        assert code == 0  # the 107 pair failure is skipped above the bound
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "case", "A", "claimed", "distinct", "verdict"]
        assert all(r[5] == "SieveOnly" for r in rows[1:])

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--from", "3", "--to", "50", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "case", "A", "claimed", "distinct", "verdict"]
        assert rows[1] == ["3", "SmallRegime", "1", "0", "1", "Verified"]
        by_p = {r[0]: r for r in rows[1:]}
        assert by_p["43"] == ["43", "Case1", "3", "11", "9", "DedupAnomaly"]
        assert by_p["47"] == ["47", "Case2", "5", "13", "11", "DedupAnomaly"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--from", "3", "--to", "100", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["schema"] == 1
        assert summary["primes_checked"] == 13
        assert summary["case1_count"] == 4
        assert summary["case2_count"] == 3
        assert summary["small_count"] == 6
        assert summary["violations"] == []
        assert len(summary["rows"]) == 13

    def test_jobs_do_not_change_output(self, capsys):
        _, out1, _ = run(
            capsys, "verify", "--from", "3", "--to", "400", "--format", "csv"
        )
        _, out2, _ = run(
            capsys,
            "verify",
            "--from",
            "3",
            "--to",
            "400",
            "--format",
            "csv",
            "--jobs",
            "2",
        )
        assert out1 == out2

    def test_jobs_capped_at_chunk_count(self, capsys, monkeypatch, fake_pool):
        # The executor may start all its workers at once: ask for no more
        # than there are chunks or CPUs.
        argv = ("verify", "--from", "3", "--to", "400", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        for jobs in ("3", "100000"):
            assert run(capsys, *argv, "--jobs", jobs)[:2] == (code, out)
        (small, small_chunks), (huge, huge_chunks) = [(p.max_workers, *p.maps) for p in fake_pool]
        assert small == 3 < small_chunks
        assert huge == 4 < huge_chunks == out.count("\n") - 1  # a chunk per prime

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (1000, 13)])
    def test_workers_capped_at_chunks_and_cpus(self, capsys, monkeypatch, fake_pool, cpus, workers):
        # 13 primes in [3, 100], so at most 13 chunks. Without an affinity
        # set the machine's CPU count is used, and an unknown one counts as
        # one: one worker runs in this process and starts no pool.
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ("verify", "--from", "3", "--to", "100", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "100000")[:2] == (code, out)
        assert [p.max_workers for p in fake_pool] == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("usable, workers", [(1, []), (3, [3])], ids=["one-cpu", "three-cpus"])
    def test_workers_capped_at_usable_cpus(self, capsys, monkeypatch, fake_pool, usable, workers):
        # The CPUs this process may run on, not the machine's: a process
        # pinned to one CPU of many starts no pool.
        usable_cpus(monkeypatch, usable)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        argv = ("verify", "--from", "3", "--to", "400", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "8")[:2] == (code, out)
        assert [p.max_workers for p in fake_pool] == workers

    @pytest.mark.parametrize(
        "failure",
        [BrokenProcessPool("a worker died"), KeyboardInterrupt()],
        ids=["broken-pool", "interrupt"],
    )
    def test_pool_failure_exits_2(self, capsys, monkeypatch, failure):
        # No process is started: the pool's map raises what a crashed worker
        # or a Ctrl-C raises in the parent.
        class FailingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                raise failure

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        monkeypatch.setattr(cli, "_POOL_AFTER", 0)
        usable_cpus(monkeypatch, 2)
        code, out, err = run(capsys, "verify", "--from", "3", "--to", "400", "--jobs", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_sweep_reads_only_what_it_prints(self, capsys, monkeypatch):
        # A sweep prints counts, one reason and at most three ledger entries
        # per prime, so it builds no witness and no other ledger entry.
        # Rows are built by construction._build, which counts them here; a
        # row type called directly would raise.
        built = {"PairWitness": 0, "DedupEntry": 0}
        build = construction._build

        def counting(kind, *columns):
            rows = list(build(kind, *columns))
            built[kind.__name__] += len(rows)
            return iter(rows)

        def refuse(cls, *args):
            raise AssertionError(f"{cls.__name__} built outside construction._build")

        monkeypatch.setattr(construction, "_build", counting)
        for cls in (construction.PairWitness, construction.DedupEntry):
            guarded = type(cls.__name__, (cls,), {"__new__": refuse})
            monkeypatch.setattr(construction, cls.__name__, guarded)
        # Nor does it build a family's report or the ledger view: a report
        # builds its families and dedup_ledger only when they are read.
        families = []

        class CountedFamily(construction.FamilyReport):
            def __init__(self, *args, **kwargs):
                families.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(construction, "FamilyReport", CountedFamily)
        reports = []
        audit = cli.build_report
        monkeypatch.setattr(cli, "build_report", lambda p: reports.append(audit(p)) or reports[-1])
        code, out, _ = run(capsys, "verify", "--from", "21000", "--to", "21400")
        assert code == 1 and "23 primes" in out
        assert built == {"PairWitness": 0, "DedupEntry": 3 * 23}
        assert families == [] and len(reports) == 23
        assert not [r.p for r in reports if {"families", "dedup_ledger"} & set(vars(r))]

    def test_construction_limit_exits_2(self, capsys, monkeypatch):
        # The audit allocates per pair: a prime past the construction limit
        # stops construct and verify before any family runs, while the
        # sieve-only sweep still checks it.
        monkeypatch.setattr(construction, "_CONSTRUCT_LIMIT", 100)
        for argv in (("construct", "107"), ("verify", "--from", "107", "--to", "107")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "construction limit" in err
        code, out, _ = run(
            capsys, "verify", "--from", "107", "--to", "107", "--fast", "100", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1:] == ["107,Case1,9,0,0,SieveOnly"]

    def test_wall_time_on_stderr_not_stdout(self, capsys):
        _, out, err = run(capsys, "verify", "--from", "3", "--to", "20")
        assert "wall time" in err
        assert "wall time" not in out

    def test_inverted_range(self, capsys, tmp_path):
        # The range is checked first: before --jobs, and before --out is
        # opened, so the file keeps what it held.
        target = tmp_path / "sweep.txt"
        target.write_text("kept\n")
        argv = ("verify", "--from", "10", "--to", "5", "--jobs", "0", "--out", str(target))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: --from 10 exceeds --to 5\n"
        assert target.read_text() == "kept\n"

    def test_bad_jobs(self, capsys):
        code, _, _ = run(capsys, "verify", "--from", "3", "--to", "10", "--jobs", "0")
        assert code == 2

    def test_negative_fast_leaves_out_file(self, capsys, tmp_path):
        # --fast is checked with the range and --jobs, before --out is
        # opened; an inverted range is still reported first.
        target = tmp_path / "sweep.txt"
        target.write_text("kept\n")
        argv = ("verify", "--from", "3", "--to", "50", "--fast", "-5", "--out", str(target))
        assert run(capsys, *argv) == (2, "", "error: --fast must be >= 0, got -5\n")
        assert target.read_text() == "kept\n"
        argv = ("verify", "--from", "50", "--to", "3", "--fast", "-5")
        assert run(capsys, *argv) == (2, "", "error: --from 50 exceeds --to 3\n")
        code, out, _ = run(capsys, "verify", "--from", "3", "--to", "50", "--fast", "0", "--format", "csv")
        assert code == 0 and out.count("SieveOnly") == 8

    def test_negative_bound_leaves_out_file(self, capsys, tmp_path):
        # Both bounds are checked before --out is opened, not when the first
        # window of primes is read.
        target = tmp_path / "sweep.txt"
        target.write_text("kept\n")
        argv = ("verify", "--from", "-5", "--to", "10", "--out", str(target))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: bounds must be nonnegative\n"
        assert target.read_text() == "kept\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "verify",
            "--from",
            "3",
            "--to",
            "50",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("p,case,A,claimed,distinct,verdict")

    def test_out_kept_when_a_limit_stops_the_sweep(self, capsys, monkeypatch, tmp_path):
        # The sweep audits every prime below the limit before it stops with
        # exit 2; the file is emptied only once the summary is ready.
        monkeypatch.setattr(construction, "_CONSTRUCT_LIMIT", 100)
        target = tmp_path / "sweep.txt"
        target.write_text("kept\n")
        code, out, err = run(capsys, "verify", "--from", "3", "--to", "200", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == "error: p = 103 exceeds the construction limit 100\n"
        assert target.read_text() == "kept\n"

    def test_unwritable_out_fails_before_sweep(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(
            capsys, "verify", "--from", "3", "--to", "50", "--out", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert "wall time" not in err  # the sweep never ran


class TestClassnum:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "classnum", "23")
        assert code == 0 and out == "h(-23) = 3\n"

    def test_single_methods(self, capsys):
        code, out, _ = run(capsys, "classnum", "47", "--method", "forms")
        assert code == 0 and out == "h(-47) = 5\n"
        code, out, _ = run(capsys, "classnum", "47", "--method", "charsum")
        assert code == 0 and out == "h(-47) = 5\n"

    @pytest.mark.parametrize("method", ["forms", "charsum"])
    def test_method_disagreement_exits_1(self, capsys, monkeypatch, method):
        # One method off by one: only "both" compares them, and only it fails.
        name = "reduced_forms_count" if method == "forms" else "class_number_character_sum"
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p: real(p) + 1)
        assert run(capsys, "classnum", "23", "--method", method) == (0, "h(-23) = 4\n", "")
        code, out, err = run(capsys, "classnum", "23")
        assert (code, out) == (1, "")
        off = "forms 4, charsum 3" if method == "forms" else "forms 3, charsum 4"
        assert err == f"method disagreement at p=23: {off}\n"

    def test_excluded_inputs(self, capsys):
        assert run(capsys, "classnum", "3")[0] == 2
        assert run(capsys, "classnum", "13")[0] == 2
        assert run(capsys, "classnum", "15")[0] == 2

    def test_validates_the_prime_once(self, capsys, is_prime_calls):
        # Both methods get the prime the command validated; the texts of the
        # refusals are those of the prime check and the methods' own checks.
        assert run(capsys, "classnum", "23") == (0, "h(-23) = 3\n", "")
        assert is_prime_calls == [23]
        refusals = {
            "21": "21 is not an odd prime",
            "13": "p must be 3 mod 4, got 13",
            "3": "p = 3 is excluded (six units in Q(sqrt(-3)))",
        }
        for p, text in refusals.items():
            assert run(capsys, "classnum", p) == (2, "", f"error: {text}\n")

    def test_past_the_class_number_limit(self, capsys):
        # Counting forms at p ~ 10^12 would take hours; every method stops
        # at once.
        for method in ("forms", "both", "charsum"):
            code, out, err = run(capsys, "classnum", "1000000000039", "--method", method)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "limit" in err


class TestIdentity:
    def test_range_passes(self, capsys):
        code, out, _ = run(capsys, "identity", "--from", "5", "--to", "1000")
        assert code == 0
        assert "failures: 0" in out

    def test_skips_three_with_note(self, capsys):
        code, out, _ = run(capsys, "identity", "--from", "3", "--to", "30")
        assert code == 0
        assert "p=3 skipped" in out

    def test_l_check(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--from", "5", "--to", "50", "--l-check"
        )
        assert code == 0 and "failures: 0" in out

    def test_l_check_validates_each_prime_once(self, capsys, is_prime_calls):
        # The L estimate gets the prime its identity record validated.
        code, out, _ = run(capsys, "identity", "--from", "7", "--to", "2000", "--l-check")
        assert code == 0 and "failures: 0" in out
        assert Counter(is_prime_calls) == Counter(oracles.primes_trial(7, 2000, 3, 4))

    def test_l_check_reports_a_failed_identity(self, capsys, monkeypatch):
        # A wrong A(p) is the record's failure, counted once; the L estimate
        # of that prime reports its residual and raises nothing.
        real = cli._identity_records

        def off_at_43(ps):
            return [
                dataclasses.replace(r, identity_lhs=r.identity_lhs + 2) if r.p == 43 else r
                for r in real(ps)
            ]

        monkeypatch.setattr(cli, "_identity_records", off_at_43)
        code, out, err = run(capsys, "identity", "--from", "5", "--to", "50", "--l-check")
        assert code == 1 and out == (
            "p=43: h_forms=1 h_charsum=1 A=5 rhs=3\n"
            "identity checked for 7 primes in [5, 50]; failures: 1\n"
        )
        assert "Traceback" not in err

    def test_inverted_range(self, capsys):
        assert run(capsys, "identity", "--from", "10", "--to", "5")[0] == 2

    def test_negative_bound(self, capsys):
        code, out, err = run(capsys, "identity", "--from", "-5", "--to", "10")
        assert code == 2 and out == ""
        assert err == "error: bounds must be nonnegative\n"

    def test_l_terms_below_one(self, capsys):
        for n in ("0", "-5"):
            argv = ("identity", "--from", "5", "--to", "50", "--l-check", "--l-terms", n)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "--l-terms" in err

    def test_l_terms_past_the_cap(self, capsys):
        # The cap bounds the input: past it, even 10^15 terms are refused before any work.
        for n in (str(charsum._L_TERMS_LIMIT + 1), "1000000000000000"):
            argv = ("identity", "--from", "7", "--to", "7", "--l-check", "--l-terms", n)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "--l-terms" in err

    def test_past_the_class_number_limit(self, capsys):
        code, out, err = run(
            capsys, "identity", "--from", "1000000000000", "--to", "1000000000100"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "class-number limit" in err

    def test_l_terms_without_l_check(self, capsys):
        # --l-terms only sizes the --l-check series: alone it is refused, not ignored.
        argv = ("identity", "--from", "7", "--to", "7", "--l-terms", "5")
        assert run(capsys, *argv) == (2, "", "error: --l-terms needs --l-check\n")
        # The range is checked first, then the --l-terms range, then this.
        code, out, err = run(capsys, "identity", "--from", "10", "--to", "5", "--l-terms", "5")
        assert (code, out, err) == (2, "", "error: --from 10 exceeds --to 5\n")
        code, out, err = run(capsys, "identity", "--from", "7", "--to", "7", "--l-terms", "0")
        assert (code, out) == (2, "") and err.startswith("error: --l-terms must be in [1, ")

    def test_l_check_past_table_limit(self, capsys, monkeypatch):
        # The default 100p terms pass the L-series cap first at p = 43 here,
        # which stops the command before that prime's series is summed.
        monkeypatch.setattr(charsum, "_L_TERMS_LIMIT", 4000)
        code, out, err = run(capsys, "identity", "--from", "5", "--to", "50", "--l-check")
        assert code == 2 and out == ""
        assert err.startswith("error: 4300 terms") and "L-series limit" in err


    def test_failure_printed_before_l_check_limit(self, capsys, monkeypatch):
        # A prime's identity failure is printed before its --l-check stops
        # the command at the L-series cap, though the whole batch is checked
        # before either.
        real = cli._identity_records

        def failing_at_43(ps):
            return [dataclasses.replace(r, h_forms=0) if r.p == 43 else r for r in real(ps)]

        monkeypatch.setattr(cli, "_identity_records", failing_at_43)
        monkeypatch.setattr(charsum, "_L_TERMS_LIMIT", 4000)
        code, out, err = run(capsys, "identity", "--from", "5", "--to", "50", "--l-check")
        assert code == 2 and out == "p=43: h_forms=0 h_charsum=1 A=3 rhs=3\n"
        assert err.startswith("error: 4300 terms") and "L-series limit" in err


class TestSweep:
    # verify and identity read their primes through cli._sweep.

    @pytest.mark.parametrize(
        "argv, code, size, digest",
        [g for g in GOLDEN if g[0][0] in ("verify", "identity")],
        ids=[" ".join(g[0]) for g in GOLDEN if g[0][0] in ("verify", "identity")],
    )
    def test_output_does_not_depend_on_the_window(self, capsys, monkeypatch, argv, code, size, digest):
        # With 64-integer windows every range spans many windows, so identity
        # counts its forms in many small batches, and the --jobs 2 case maps
        # each window on one real two-worker pool.
        monkeypatch.setattr(primes, "_SEGMENT", 64)
        monkeypatch.setattr(cli, "_POOL_AFTER", 0)
        usable_cpus(monkeypatch, 2)
        got_code, out, _ = run(capsys, *argv)
        assert (got_code, len(out)) == (code, size)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_pool_per_sweep(self, capsys, monkeypatch, fake_pool):
        monkeypatch.setattr(primes, "_SEGMENT", 64)
        argv = ("verify", "--from", "3", "--to", "3000", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "3")[:2] == (code, out)
        assert len(fake_pool) == 1 and len(fake_pool[0].maps) > 40

    def test_next_window_mapped_before_results(self, monkeypatch, fake_pool):
        # The pool gets a window's chunks before the last window's results
        # are read, so its workers never wait at a window's end.
        monkeypatch.setattr(primes, "_SEGMENT", 64)
        results = cli._sweep(3, 3000, 3, list)
        assert next(results) == 3
        assert len(fake_pool[0].maps) == 2
        assert list(results) == primes.primes_in_range(7, 3000, 3, 4)

    def test_short_sweep_opens_no_pool(self, capsys, monkeypatch, fake_pool):
        # 40 audits take a few ms, far below the time a pool needs to pay.
        monkeypatch.setattr(cli, "_POOL_AFTER", POOL_AFTER)
        argv = ("verify", "--from", "3", "--to", "400", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "2")[:2] == (code, out)
        assert fake_pool == []

    @pytest.mark.parametrize(
        "segment, after, slices, chunks",
        [(primes._SEGMENT, 5, [8], 15), (256, 35, [8, 8, 8, 5, 8], 14)],
        ids=["first-window", "later-window"],
    )
    def test_pool_opens_once_the_sweep_has_run(self, monkeypatch, fake_pool, segment, after, slices, chunks):
        # A fake clock reads one second per prime worked. Until the gate
        # trips, work gets slices of at most 8 primes in this process, and
        # the clock is read between slices; every later prime goes to the one
        # pool, which takes the rest of that window first. [3, 3000] has 218
        # primes = 3 mod 4, in one window of the sieve segment: one slice
        # passes 5 s, and the last 210 make 15 chunks for two jobs. In
        # 256-integer windows [3, 258] has 29 and [259, 514] has 22: four
        # slices take the first window, one more passes 35 s, and the 14
        # left go one per chunk.
        monkeypatch.setattr(primes, "_SEGMENT", segment)
        monkeypatch.setattr(cli, "_POOL_AFTER", after)
        clock = [0.0]
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
        in_process = []

        def work(ps):
            clock[0] += len(ps)
            if ps and not fake_pool:
                in_process.append(len(ps))
            return [(p, len(fake_pool)) for p in ps]

        got = list(cli._sweep(3, 3000, 2, work))
        assert [p for p, _ in got] == primes.primes_in_range(3, 3000, 3, 4)
        assert in_process == slices
        gated = sum(slices)
        assert [pools for _, pools in got] == [0] * gated + [1] * (len(got) - gated)
        assert len(fake_pool) == 1 and fake_pool[0].maps[0] == chunks

    @pytest.mark.parametrize("after, pools", [(100, 1), (120, 0)], ids=["pool-pays", "little-left"])
    def test_last_window_left_short_runs_here(self, monkeypatch, fake_pool, after, pools):
        # [3, 3000] is one window, the range's last, with 218 primes = 3 mod 4,
        # and the fake clock reads one second per prime worked. At 100 s the
        # gate trips after 104 primes, and the 114 left would take 114 s, more
        # than the gate: they go to a pool. At 120 s it trips after 120, and
        # the 98 left would take 98 s: they run here, with no pool. A window
        # that is not the range's last opens the pool however few primes it
        # has left (test_pool_opens_once_the_sweep_has_run, later-window).
        monkeypatch.setattr(cli, "_POOL_AFTER", after)
        clock = [0.0]
        monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])

        def work(ps):
            clock[0] += len(ps)
            return ps

        assert list(cli._sweep(3, 3000, 2, work)) == primes.primes_in_range(3, 3000, 3, 4)
        assert len(fake_pool) == pools

    def test_first_result_after_one_window(self, monkeypatch):
        calls = []

        def recording(lo, hi, *rest):
            calls.append((lo, hi))
            return primes.primes_in_range(lo, hi, *rest)

        monkeypatch.setattr(cli, "primes_in_range", recording)
        results = cli._sweep(3, 10**12, 1, list)
        assert calls == []
        assert next(results) == 3
        [(lo, hi)] = calls
        assert lo == 3 and hi - lo < primes._SEGMENT

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--from", str(10**30), "--to", str(10**30 + 10), "--fast", "0"),
            ("identity", "--from", str(10**30), "--to", str(10**30 + 10)),
            ("verify", "--from", "3", "--to", str(10**30), "--fast", "0"),
        ],
        ids=["verify", "identity", "verify-from-3"],
    )
    def test_range_past_the_prime_sieve_limit(self, capsys, argv):
        # The base sieve up to sqrt(10^30) would take ~909 TiB, and a range
        # that starts low is refused before its first window is swept.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "prime-sieve limit" in err


class TestOnePassPerPrime:
    # A(p), the residue table, the residue sum and the L series all come
    # from squaring the half interval; each command squares it once per
    # prime, and --l-check adds only the pass for its series. The audit of
    # a prime p <= 31 sums its symbols directly and squares nothing.

    @pytest.mark.parametrize(
        "argv, passes, small_passes",
        [
            (("verify", "--from", "21000", "--to", "21400"), 1, 0),
            (("verify", "--from", "3", "--to", "3000", "--fast", "1000", "--format", "csv"), 1, 0),
            (("identity", "--from", "5", "--to", "3000"), 1, 1),
            (("identity", "--from", "5", "--to", "300", "--l-check"), 2, 2),
        ],
        ids=["verify-audit", "verify-fast", "identity", "identity-l-check"],
    )
    def test_squares_passes_per_prime(self, capsys, squares_passes, argv, passes, small_passes):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        primes = oracles.primes_trial(int(argv[2]), int(argv[4]), 3, 4)
        small = [p for p in primes if p <= 31]
        large = [p for p in primes if p > 31]
        assert Counter(squares_passes) == Counter(small_passes * small + passes * large)

    @pytest.mark.parametrize("l_check", [(), ("--l-check",)], ids=["plain", "l-check"])
    def test_identity_builds_no_residue_table(self, capsys, monkeypatch, l_check):
        # Neither the identity nor its L series needs the p-byte table.
        tables = []
        real = charsum._qr_marks
        monkeypatch.setattr(charsum, "_qr_marks", lambda pv: tables.append(pv) or real(pv))
        code, _, _ = run(capsys, "identity", "--from", "5", "--to", "3000", *l_check)
        assert code == 0 and tables == []


class TestLemma:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "lemma", "--check-up-to", "500")
        assert code == 0
        assert "integers 0..500" in out
        assert "failures: 0" in out

    def test_deterministic_across_runs(self, capsys):
        _, out1, _ = run(capsys, "lemma", "--check-up-to", "50", "--rationals", "100")
        _, out2, _ = run(capsys, "lemma", "--check-up-to", "50", "--rationals", "100")
        assert out1 == out2

    def test_seed_changes_draws_not_result(self, capsys):
        code, out, _ = run(
            capsys, "lemma", "--check-up-to", "50", "--seed", "7", "--rationals", "20"
        )
        assert code == 0 and "seed 7" in out

    def test_negative_check_up_to(self, capsys):
        code, out, err = run(capsys, "lemma", "--check-up-to", "-5")
        assert code == 2 and out == ""
        assert "--check-up-to" in err

    def test_negative_rationals(self, capsys):
        code, out, err = run(
            capsys, "lemma", "--check-up-to", "3", "--rationals", "-4"
        )
        assert code == 2 and out == ""
        assert "--rationals" in err

    def test_counts_past_the_cap_exit_2_before_any_check(self, capsys):
        # Each value costs a few microseconds, so these would run for days.
        limit = cli._LEMMA_LIMIT
        for argv, flag in (
            (("--check-up-to", str(10**20)), "--check-up-to"),
            (("--check-up-to", "0", "--rationals", str(10**11)), "--rationals"),
        ):
            code, out, err = run(capsys, "lemma", *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {flag} {argv[-1]} exceeds the lemma limit {limit}\n"

    def test_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LEMMA_LIMIT", 40)
        code, out, _ = run(capsys, "lemma", "--check-up-to", "40")
        assert code == 0 and "0..40 and 40 random rationals" in out
        for argv in (("--check-up-to", "41", "--rationals", "0"), ("--check-up-to", "0", "--rationals", "41")):
            code, out, err = run(capsys, "lemma", *argv)
            assert (code, out) == (2, "") and err.endswith("exceeds the lemma limit 40\n")


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# Edge values, and values past each cap: the construction limit, the 2^31
# sieve and class-number limits, the 64-bit modulus cap, the 2^48 prime-sieve
# limit, the 2^35 L-series cap and the 10^7 lemma cap.
EDGES = (-7, 0, 1, 2, 3, 4, 9, 13, 31, 43, 47, 107)
PAST = (8388619, 2147483659, 2**64 + 13, 10**30, 2**35 + 1, 10**7 + 1)
# Below the 2^31 limits and the lemma cap, 8388619 is valid and slow: the
# direct symbol loop and a lemma count take seconds on it.
SLOW = 8388619


@st.composite
def argvs(draw, outs):
    """An argv for one of the seven subcommands, valid or not, that runs fast
    or is refused: tiny and inverted ranges, single values past a cap, and
    counts, --jobs, --fast and --out values at and past their edges."""

    def one(*values):
        return draw(st.sampled_from(values))

    def switch(flag):
        return [flag] if draw(st.booleans()) else []

    def option(flag, *values):
        return [flag, str(one(*values))] if draw(st.booleans()) else []

    command = one("symbol", "asum", "construct", "verify", "classnum", "identity", "lemma")
    values, quick = EDGES + PAST, [v for v in EDGES + PAST if v != SLOW]
    if command == "symbol":
        return [command, str(one(*values)), str(one(*values))]
    if command == "lemma":
        return [command, "--check-up-to", str(one(*quick)), *option("--rationals", *quick)]
    if command in ("asum", "classnum", "construct"):
        argv = {
            "asum": ["--method", one("direct", "sieve"), *switch("--json")],
            "classnum": ["--method", one("forms", "charsum", "both")],
            "construct": [*switch("--json"), *option("--out", *outs)],
        }[command]
        p = one(*(quick if "direct" in argv else values))
        return [command, str(p), *argv]
    lo, hi = draw(
        st.one_of(
            st.tuples(st.sampled_from(EDGES), st.sampled_from(EDGES)),
            st.sampled_from(PAST).map(lambda v: (v, v)),
            st.tuples(st.sampled_from(PAST), st.sampled_from(EDGES)),
            st.tuples(st.sampled_from(EDGES), st.sampled_from((2**64 + 13, 10**30))),
        )
    )
    argv = [command, "--from", str(lo), "--to", str(hi)]
    if command == "verify":
        argv += option("--jobs", -1, 0, 1, 2, 10**9) + option("--fast", -1, 0, 10)
        argv += ["--format", one("text", "json", "csv"), *switch("--strict")]
        return argv + option("--out", *outs)
    l_terms = option("--l-terms", *EDGES, 2**35, 2**35 + 1, 2**64 + 13, 10**30)
    return argv + l_terms + switch("--l-check")


class Overran(Exception):
    """Raised inside a call that runs past its time; cli.main does not catch it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Overran in the running code once `seconds` of wall time pass."""

    def stop(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestExitCodes:
    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_argv_exits_0_1_or_2(self, capsys, fake_pool, tmp_path, data):
        # Every outcome maps to its exit code, and every input past a cap is
        # refused rather than run: the time limit stops one that runs for
        # long, so a lost cap fails the test instead of hanging it.
        (tmp_path / "out.txt").touch()
        outs = ("/dev/full", str(tmp_path), str(tmp_path / "out.txt"))
        argv = data.draw(argvs(outs))
        with time_limit(3):
            code, _, err = outcome(capsys, argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "Traceback" not in err, argv
            assert len([line for line in err.splitlines() if "error:" in line]) == 1, argv


class TestNoCycles:
    def test_commands_leave_no_cyclic_garbage(self, capsys):
        # Every object a command makes is freed by reference counting: a
        # cycle would keep, say, each audited prime's report until the
        # cyclic GC ran.
        gc.collect()
        gc.disable()
        try:
            for command in ("verify", "identity"):
                code, _, _ = run(capsys, command, "--from", "3", "--to", "3000")
                assert code in (0, 1) and gc.collect() == 0, command
        finally:
            gc.enable()


class TestOneParser:
    # main() builds its parser once per process and reuses it on every call.

    def test_built_once_per_process_and_not_on_import(self):
        # Counted in a fresh interpreter, where no main() has run yet.
        script = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import halfsum.cli
counts = [len(built)]
for argv in (["symbol", "2", "7"], ["asum", "11"], ["symbol", "3", "7"]):
    with contextlib.redirect_stdout(io.StringIO()):
        halfsum.cli.main(argv)
    counts.append(len(built))
print(json.dumps(counts))
"""
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        # The parser and its seven subparsers, all on the first call.
        assert json.loads(done.stdout) == [0, 8, 8, 8]

    def test_repeated_calls_give_identical_results(self, capsys):
        sequence = [
            ("identity", "--from", "3", "--to", "200"),
            ("verify", "--from", "3", "--to", "100", "--format", "json"),
            ("asum", "23", "--method", "direct", "--json"),
            ("asum", "23", "--json"),
            ("verify", "--from", "3"),
            ("--version",),
        ]
        first = [outcome(capsys, argv) for argv in sequence]
        second = [outcome(capsys, argv) for argv in sequence]
        assert first == second
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 0]
        assert "the following arguments are required: --to" in first[4][2]
        # The default method follows an explicit --method direct.
        assert json.loads(first[2][1])["method"] == "direct"
        assert json.loads(first[3][1])["method"] == "sieve"

    def test_no_value_carries_over(self):
        parser = cli.build_parser()
        parser.parse_args(
            ["verify", "--from", "3", "--to", "9", "--jobs", "2", "--format", "csv"]
            + ["--out", "x", "--strict", "--fast", "5"]
        )
        parser.parse_args(["asum", "23", "--method", "direct", "--json"])
        parser.parse_args(["identity", "--from", "3", "--to", "9", "--l-check", "--l-terms", "50"])
        parser.parse_args(["lemma", "--check-up-to", "4", "--rationals", "2", "--seed", "3"])
        verify = vars(parser.parse_args(["verify", "--from", "1", "--to", "2"]))
        assert verify == {
            "command": "verify",
            "lo": 1,
            "hi": 2,
            "jobs": 1,
            "format": "text",
            "out": None,
            "strict": False,
            "fast": None,
            "func": cli.cmd_verify,
        }
        asum = vars(parser.parse_args(["asum", "23"]))
        assert asum == {
            "command": "asum",
            "p": 23,
            "method": "sieve",
            "json": False,
            "func": cli.cmd_asum,
        }
        identity = vars(parser.parse_args(["identity", "--from", "1", "--to", "2"]))
        assert identity["l_check"] is False and identity["l_terms"] is None
        lemma = vars(parser.parse_args(["lemma", "--check-up-to", "1"]))
        assert lemma["rationals"] is None and lemma["seed"] == 20250814
