"""Tests for the command-line interface.

Each test drives main(argv) directly and inspects captured output and
exit codes. Exit contract: 0 all checks passed, 1 a mathematical claim
failed verification, 2 usage error.
"""

import csv
import io
import json
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

import oracles
from halfsum import charsum, cli, construction
from halfsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_jobs_capped_at_chunk_count(self, capsys, monkeypatch):
        # No process is started: the pool is replaced by one that records
        # the worker count it is asked for and maps in this process.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                asked.append((self.max_workers, len(chunks)))
                return map(fn, chunks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        argv = ("verify", "--from", "3", "--to", "400", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        for jobs in ("3", "100000"):
            assert run(capsys, *argv, "--jobs", jobs)[:2] == (code, out)
        (small, small_chunks), (huge, huge_chunks) = asked
        assert small == 3 < small_chunks
        assert huge == huge_chunks == out.count("\n") - 1  # a chunk per prime

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FailingPool)
        code, out, err = run(capsys, "verify", "--from", "3", "--to", "400", "--jobs", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_sweep_reads_only_what_it_prints(self, capsys, monkeypatch):
        # A sweep prints counts, one reason and at most three ledger entries
        # per prime, so it builds no witness and no other ledger entry.
        built = {"PairWitness": 0, "DedupEntry": 0}

        def counting(cls):
            def make(*args):
                built[cls.__name__] += 1
                return cls(*args)

            return make

        for cls in (construction.PairWitness, construction.DedupEntry):
            monkeypatch.setattr(construction, cls.__name__, counting(cls))
        code, out, _ = run(capsys, "verify", "--from", "21000", "--to", "21400")
        assert code == 1 and "23 primes" in out
        assert built == {"PairWitness": 0, "DedupEntry": 3 * 23}

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

    def test_inverted_range(self, capsys):
        code, _, err = run(capsys, "verify", "--from", "10", "--to", "5")
        assert code == 2 and "exceeds" in err

    def test_bad_jobs(self, capsys):
        code, _, _ = run(capsys, "verify", "--from", "3", "--to", "10", "--jobs", "0")
        assert code == 2

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

    def test_excluded_inputs(self, capsys):
        assert run(capsys, "classnum", "3")[0] == 2
        assert run(capsys, "classnum", "13")[0] == 2
        assert run(capsys, "classnum", "15")[0] == 2

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

    def test_inverted_range(self, capsys):
        assert run(capsys, "identity", "--from", "10", "--to", "5")[0] == 2

    def test_l_terms_below_one(self, capsys):
        for n in ("0", "-5"):
            argv = ("identity", "--from", "5", "--to", "50", "--l-check", "--l-terms", n)
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "--l-terms" in err

    def test_past_the_class_number_limit(self, capsys):
        code, out, err = run(
            capsys, "identity", "--from", "1000000000000", "--to", "1000000000100"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "class-number limit" in err

    def test_l_check_past_table_limit(self, capsys, monkeypatch):
        # The L-series signs come from a p-byte table: a prime past the table
        # limit stops the command before that table is allocated.
        monkeypatch.setattr(charsum, "_TABLE_LIMIT", 40)
        code, out, err = run(capsys, "identity", "--from", "5", "--to", "50", "--l-check")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "table limit" in err


class TestOnePassPerPrime:
    # A(p), the residue table, the residue sum and the L-series signs all
    # come from squaring the half interval; each command squares it once
    # per prime, and --l-check adds only the pass for its sign table.

    @pytest.mark.parametrize(
        "argv, passes",
        [
            (("verify", "--from", "21000", "--to", "21400"), 1),
            (("verify", "--from", "3", "--to", "3000", "--fast", "1000", "--format", "csv"), 1),
            (("identity", "--from", "5", "--to", "3000"), 1),
            (("identity", "--from", "5", "--to", "300", "--l-check"), 2),
        ],
        ids=["verify-audit", "verify-fast", "identity", "identity-l-check"],
    )
    def test_squares_passes_per_prime(self, capsys, squares_passes, argv, passes):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        primes = oracles.primes_trial(int(argv[2]), int(argv[4]), 3, 4)
        assert Counter(squares_passes) == Counter(passes * primes)


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
