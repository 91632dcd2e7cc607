import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from overpseudo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    return code, records, err


class TestClassifyCommand:
    def test_golden_record(self, capsys):
        code, records, _ = run_json(capsys, "classify", "3277")
        assert code == 0
        (rec,) = records
        assert rec["command"] == "classify"
        assert rec["input"] == {"n": 3277}
        assert rec["result"]["factors"] == [[29, 1], [113, 1]]
        assert rec["result"]["h"] == 28
        assert rec["result"]["r"] == 117
        flags = rec["result"]["flags"]
        assert flags["overpseudoprime_base2"] is True
        assert flags["super_poulet"] is True
        assert flags["strong_psp_base2"] is True
        assert flags["carmichael"] is False
        assert rec["result"]["verdict_basis"] == "both"
        assert rec["warnings"] == []

    def test_matches_library(self, capsys):
        from overpseudo import classify

        code, records, _ = run_json(capsys, "classify", "1541955409")
        assert code == 0
        rep = classify(1541955409)
        flags = records[0]["result"]["flags"]
        assert flags["carmichael"] == rep.flags.carmichael
        assert flags["overpseudoprime_base2"] == rep.flags.overpseudoprime_base2
        assert records[0]["result"]["h"] == rep.h == 166

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "classify", "2047", "--format", "json")
        _, out2, _ = run_cli(capsys, "classify", "2047", "--format", "json")
        assert out1 == out2

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "4")
        assert code == 1
        assert "odd" in err

    def test_text_mode_mentions_flags(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "3277")
        assert code == 0
        assert "overpseudoprime_base2: True" in out


class TestCosetsCommand:
    def test_worked_example(self, capsys):
        code, records, _ = run_json(capsys, "cosets", "15")
        assert code == 0
        result = records[0]["result"]
        assert result["r"] == 4
        assert result["h"] == 4
        assert result["cosets"] == [[1, 2, 4, 8], [3, 6, 9, 12], [5, 10],
                                    [7, 11, 13, 14]]

    def test_custom_base(self, capsys):
        code, records, _ = run_json(capsys, "cosets", "5", "--base", "4")
        assert code == 0
        assert records[0]["result"]["cosets"] == [[1, 4], [2, 3]]


class TestPrimoverCommand:
    def test_full_overpseudoprime_order(self, capsys):
        code, records, _ = run_json(capsys, "primover", "28")
        assert code == 0
        result = records[0]["result"]
        assert result["primitive_factors"] == [[29, 1], [113, 1]]
        assert result["cofactor"] == 3277
        assert result["is_full_overpseudoprime"] is True
        assert result["omega"] == 2
        assert result["ratio"] == pytest.approx(2.397637992322646)

    @pytest.mark.parametrize("n", [28, 300])
    def test_factors_the_primitive_part_once(self, capsys, n):
        from overpseudo import Budget, primitive_part

        budget = Budget()
        primitive_part(n, budget)
        code, records, _ = run_json(capsys, "primover", str(n))
        assert code == 0
        assert records[0]["effort_spent"] == budget.spent

    def test_zsygmondy_exception_warns(self, capsys):
        code, records, _ = run_json(capsys, "primover", "6")
        assert code == 0
        result = records[0]["result"]
        assert result["cofactor"] == 1
        assert result["omega"] is None
        assert records[0]["warnings"]


class TestDichotomyCommand:
    def test_prime_and_overpseudoprime(self, capsys):
        code, records, _ = run_json(capsys, "dichotomy", "13")
        assert code == 0
        assert records[0]["result"]["verdict"] == "prime"
        code, records, _ = run_json(capsys, "dichotomy", "11")
        assert records[0]["result"] == {"p": 11, "mersenne": 2047,
                                        "verdict": "overpseudoprime"}

    def test_composite_exponent_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "dichotomy", "9")
        assert code == 1


class TestGenerateCommand:
    def test_k3_trace(self, capsys):
        code, records, _ = run_json(capsys, "generate", "3")
        assert code == 0
        result = records[0]["result"]
        assert result["value"] == 3277
        assert result["L"] == 113 and result["M"] == 145
        assert result["primitive_L"] == [113]
        assert result["primitive_M"] == [29]

    def test_below_guarantee_warns(self, capsys):
        code, records, _ = run_json(capsys, "generate", "1")
        assert code == 0
        assert records[0]["result"]["value"] is None
        assert records[0]["warnings"]


class TestTableCommand:
    def test_rows_stream_one_record_each(self, capsys):
        code, records, _ = run_json(capsys, "table", "28", "44", "--step", "8")
        assert code == 0
        assert [(r["result"]["n"], r["result"]["least"]) for r in records] == [
            (28, 3277), (36, 4033), (44, 838861)]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "28", "36", "--step", "8",
                               "--format", "csv")
        assert code == 0
        assert out == "n,least_overpseudoprime\n28,3277\n36,4033\n"

    def test_csv_file_matches_csv_format(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        argv = ("table", "28", "44", "--step", "8")
        code, _, _ = run_json(capsys, *argv, "--csv", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_orders_without_members_are_reported(self, capsys):
        code, records, _ = run_json(capsys, "table", "20", "20")
        assert code == 0
        assert records[0]["result"]["least"] is None
        assert records[0]["warnings"]

    @pytest.mark.usefixtures("no_phi2_table")
    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "table", "101", "101", "--budget", "100")
        assert code == 2


class TestCountCommand:
    def test_empty_range(self, capsys):
        code, records, _ = run_json(capsys, "count", "100")
        assert code == 0
        assert records[0]["result"]["ov"] == 0

    def test_members_flag(self, capsys):
        code, records, _ = run_json(capsys, "count", "5000", "--members")
        assert code == 0
        result = records[0]["result"]
        assert result["members"] == [2047, 3277, 4033]
        assert result["by_order"] == [[11, 1], [28, 1], [36, 1]]

    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "count.csv"
        code, _, _ = run_json(capsys, "count", "2047", "--csv", str(path))
        assert code == 0
        assert path.read_text() == (
            "x,ov,x_3_4,ratio,x_1_2\n2047,1,304.325526,0.003286,45.243784\n"
        )

    def test_csv_file_does_not_enumerate_again(self, capsys, tmp_path):
        from overpseudo import bound_report, bound_report_csv

        path = tmp_path / "count.csv"
        code, plain, _ = run_json(capsys, "count", "100000")
        assert code == 0
        code, with_csv, _ = run_json(capsys, "count", "100000", "--csv", str(path))
        assert code == 0
        assert with_csv[0]["effort_spent"] == plain[0]["effort_spent"]
        assert path.read_text() == bound_report_csv(bound_report([100000]))

    def test_bytes_at_1e8(self, capsys):
        # the whole stdout, effort_spent included: prefix and suffix spelled
        # out, the by_order list between them held by length and digest
        code, out, err = run_cli(capsys, "count", "100000000", "--format", "json")
        assert (code, err) == (0, "")
        assert out.startswith(
            '{"command": "count", "effort_spent": 0, "input": {"x": 100000000}, '
            '"result": {"by_order": [[11, 1], [23, 1], [25, 1], [28, 1], [29, 3], '
        )
        assert out.endswith(
            '[4482, 1], [4812, 1], [5748, 1]], "ov": 266, "ratio": 0.000266, '
            '"x": 100000000, "x_3_4": 1000000.0}, "warnings": []}\n'
        )
        assert len(out.encode()) == 2084
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9b534e906506c28f85ebf2c6b0435d1c5dfe95fcaf73076aa79fde839b58bd78"
        )

    def test_bytes_at_1e10(self, capsys):
        # the benchmark's scale, where 4283 orders from 10**4 up are charged
        # and read off the links: the whole stdout, as at 1e8
        code, out, err = run_cli(capsys, "count", "10000000000", "--format", "json")
        assert (code, err) == (0, "")
        assert out.startswith(
            '{"command": "count", "effort_spent": 36701, "input": {"x": 10000000000}, '
            '"result": {"by_order": [[11, 1], [23, 1], [25, 1], [28, 1], [29, 4], '
        )
        assert out.endswith(
            '[67956, 1], [69876, 1]], "ov": 1730, "ratio": 5.470740352091296e-05, '
            '"x": 10000000000, "x_3_4": 31622776.60168379}, "warnings": []}\n'
        )
        assert len(out.encode()) == 14063
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8ba1e147c72a80712cfd7dd264b148a23adba5814a6aa938279a365826c41b31"
        )

    def test_budget_exhaustion_bytes(self, capsys):
        # every order below 10**4 is read from the table, at no charge; at
        # 3e8 the first order above it, 10098, scans, after the orders with
        # members below it, which the library's count at 3e8 lists
        from overpseudo import ov_count

        code, out, err = run_cli(capsys, "count", "300000000", "--budget", "5")
        assert (code, out) == (2, "")
        completed = [h for h in ov_count(3 * 10**8).by_order if h < 10098]
        assert completed[:5] == [11, 23, 25, 28, 29] and completed[-1] == 9900
        assert err == (
            "effort exhausted: work budget exhausted (6 of 5 units); "
            f"orders below 10098 were completed: {completed}\n"
        )
        assert len(err.encode()) == 1682

    def test_small_budget_at_1e10_exits_2_within_a_second(self):
        # in a fresh process: the sweep, the table's read and the one pass
        # over the index of 2 all run before the first charge, which already
        # exceeds 10 units, at the first order above 10**4 with a candidate
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "overpseudo.cli", "count", "10000000000", "--budget", "10"],
            capture_output=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(
            b"effort exhausted: work budget exhausted (20 of 10 units); "
            b"orders below 10011 were completed: [11, 23, 25, ")
        assert len(proc.stderr) == 4674
        assert hashlib.sha256(proc.stderr).hexdigest() == (
            "92ccd9c8cd959972d8969393a15a84c1cf5498804d5eeb4040c3ac5344d31900"
        )
        assert elapsed < 1.0

    def test_tabled_orders_need_no_budget(self, capsys):
        # 2047 = 23 * 89 has order 11, a complete table entry, read at no charge
        code, records, err = run_json(capsys, "count", "2047", "--budget", "0")
        assert (code, err) == (0, "")
        assert records[0]["result"]["ov"] == 1
        assert records[0]["effort_spent"] == 0


class TestBoundReportCommand:
    def test_rows_and_file(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, records, _ = run_json(capsys, "bound-report", "1000,2047",
                                    "--csv", str(path))
        assert code == 0
        assert [r["result"]["ov"] for r in records] == [0, 1]
        assert records[1]["result"]["x_1_2"] == pytest.approx(2047**0.5)
        assert path.read_text() == (
            "x,ov,x_3_4,ratio,x_1_2\n"
            "1000,0,177.827941,0.000000,31.622777\n"
            "2047,1,304.325526,0.003286,45.243784\n"
        )

    def test_descending_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "bound-report", "2047,1000")
        assert code == 1

    def test_bounds_below_3(self, capsys):
        code, records, _ = run_json(capsys, "bound-report", "1,2")
        assert code == 0
        assert [(r["result"]["x"], r["result"]["ov"]) for r in records] == [(1, 0), (2, 0)]

    def test_x_below_1_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        for argv in (("0,100",), ("--format", "json", "--", "-5,100"),
                     ("--csv", str(path), "0,100")):
            code, out, err = run_cli(capsys, "bound-report", *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: "), argv
        assert not path.exists()


class TestWitnessCommands:
    def test_witness(self, capsys):
        code, records, _ = run_json(capsys, "witness", "1541955409")
        assert code == 0
        assert records[0]["result"]["witness"] == 3
        assert records[0]["result"]["bases_checked"] == 2

    def test_common_witness(self, capsys):
        code, records, _ = run_json(capsys, "common-witness", "9,341",
                                    "--max", "10")
        assert code == 0
        assert records[0]["result"]["witness"] == 2

    def test_common_witness_charge(self, capsys):
        # rho, then ECM, on the 130-bit n and on p - 1 of its large primes,
        # each p - 1 factored once for the whole scan rather than once per base
        code, records, _ = run_json(
            capsys, "common-witness",
            "1396879465676400832469271696291467558089,2047", "--max", "5")
        assert code == 0
        assert records[0]["result"]["witness"] == 3
        assert records[0]["effort_spent"] == 310756

    def test_common_witness_absent(self, capsys):
        code, records, _ = run_json(capsys, "common-witness", "1541955409",
                                    "--max", "2")
        assert code == 0
        assert records[0]["result"]["witness"] is None
        assert records[0]["warnings"]


class TestGlobalFlags:
    def test_csv_rejected_for_scalar_commands(self, capsys):
        code, _, err = run_cli(capsys, "classify", "3277", "--format", "csv")
        assert code == 1
        assert "csv" in err

    def test_usage_error_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "not-a-number")
        assert code == 1

    def test_effort_spent_reported(self, capsys):
        # order 10098 lies above the table's scanned section, so count at 3e8 scans it
        code, records, _ = run_json(capsys, "count", "300000000")
        assert code == 0
        assert records[0]["effort_spent"] > 0

    def test_seed_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "count", "100", "--seed", "7",
                                 "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("count", "100000"),
        ("primover", "97"),
        ("classify", "341"),
    ])
    def test_negative_budget_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--budget", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        # a zero budget is a budget, not a usage error
        code, _, err = run_cli(capsys, *argv, "--budget", "0")
        assert code != 1, err

    @pytest.mark.parametrize("argv", [
        ("count", "100"),
        ("table", "28", "44", "--step", "8"),
        ("bound-report", "1000,2047"),
    ])
    def test_unwritable_csv_is_domain_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--csv", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not path.exists()


class TestParserReuse:
    """main builds its parser once per process; no call sees another's args."""

    def test_csv_file_not_written_again(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        argv = ("table", "28", "44", "--step", "8")
        code, out_with_csv, _ = run_cli(capsys, *argv, "--csv", str(path))
        assert code == 0
        assert path.read_text() == "n,least_overpseudoprime\n28,3277\n36,4033\n44,838861\n"
        path.unlink()
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, out_with_csv)
        assert not path.exists()

    def test_valid_call_after_usage_error(self, capsys):
        argv = ("classify", "3277", "--format", "json")
        before = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, "classify", "3277", "--members")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert run_cli(capsys, *argv) == before


@pytest.mark.usefixtures("no_phi2_table")
class TestFactorMemoAcrossCommands:
    """Commands run one after another in one process print what they print
    when each starts with an empty factorization memo."""

    # 2**24 + 43 times 2**30 + 3: both factors need rho
    SEMIPRIME = "18014444730712193"

    # stored: whether the memo holds anything after the runs at the default
    # budget; budgets: each further budget, with the same flag after its
    # runs.  Trial division alone splits 2**97 - 1, so nothing is stored
    # for it, and the smaller budgets of 79 and the semiprime leave their
    # results incomplete, which are not stored
    @pytest.mark.parametrize("commands, budgets, stored", [
        ((["primover", "97"], ["table", "97", "97"]), {"10": False}, False),
        ((["primover", "79"], ["table", "79", "79"]), {"20000": False}, True),
        ((["classify", SEMIPRIME], ["witness", SEMIPRIME]), {"5000": False}, True),
        # p-1 completes 163 (known = 326), and the table replays it
        ((["primover", "163"], ["table", "163", "163"]), {"100000": True}, True),
    ])
    def test_same_output_as_cold_runs(self, capsys, commands, budgets, stored):
        from overpseudo import arith

        for budget, held in [(None, stored), *budgets.items()]:
            flags = ["--format", "json"] + ([] if budget is None else
                                            ["--budget", budget])
            cold = []
            for argv in commands:
                arith._factor_memo.clear()
                cold.append(run_cli(capsys, *argv, *flags))
            arith._factor_memo.clear()
            warm = [run_cli(capsys, *argv, *flags) for argv in commands]
            assert warm == cold, (commands, budget)
            assert bool(arith._factor_memo) == held, (commands, budget)
            assert all(fz.complete for fz, _ in arith._factor_memo.values())


class TestNoOrderStateAcrossCommands:
    # 3 * 563045318627147; the large prime's p - 1 needs rho
    N = "1689135955881441"

    def test_small_budget_fails_again_after_a_full_run(self, capsys):
        seen = []
        for flags in (["--budget", "1000"], [], ["--budget", "1000"], []):
            code, records, err = run_json(capsys, "classify", self.N, *flags)
            seen.append(records[0]["effort_spent"] if code == 0 else code)
        assert seen == [2, 12542, 2, 12542]


class TestClosedStdout:
    """A reader that is gone before any output leaves exit code 0 and no error."""

    # the small record waits in the buffer for the interpreter's final flush;
    # the large one overflows the buffer while it is written
    @pytest.mark.parametrize("argv", [
        ["classify", "15", "--format", "json"],
        ["cosets", "20001"],
    ])
    def test_exit_zero_and_silent(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "overpseudo.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestEmit:
    # exact results can exceed Python's int-to-str digit limit; each output
    # format writes them in full and leaves the limit as it was
    BIG = 10**5000 + 1
    DIGITS = "1" + "0" * 4999 + "1"

    @pytest.fixture
    def big_table(self, monkeypatch):
        from overpseudo import cli

        monkeypatch.setattr(cli, "least_overpseudoprime_with_order",
                            lambda n, budget: self.BIG)

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_ints_above_the_digit_limit(self, capsys, big_table, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "table", "28", "28", "--format", fmt)
        assert (code, err) == (0, "")
        assert self.DIGITS in out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_csv_file_and_stdout_agree(self, capsys, tmp_path, monkeypatch, big_table):
        from overpseudo import cli

        built = []
        writer = cli._CSV_WRITERS["table"]

        def spy(records):
            built.append(records)
            return writer(records)

        monkeypatch.setitem(cli._CSV_WRITERS, "table", spy)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        path = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "table", "28", "28", "--format", "csv",
                                 "--csv", str(path))
        assert (code, err) == (0, "")
        assert len(built) == 1  # one CSV text serves the file and stdout
        assert path.read_bytes() == out.encode()
        assert out == f"n,least_overpseudoprime\n28,{self.DIGITS}\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_text_puts_each_row_of_scalars_on_one_line(self, capsys):
        # count's by_order pairs and classify's factor pairs, each [a, b] row
        # on one line as "a b"
        code, out, err = run_cli(capsys, "count", "100000")
        assert (code, err) == (0, "")
        assert out == (
            "# count {'x': 100000}\n"
            "x: 100000\n"
            "ov: 8\n"
            "x_3_4: 5623.413251903491\n"
            "ratio: 0.0014226235280311382\n"
            "by_order:\n"
            "  11 1\n  28 1\n  36 1\n  48 1\n  52 2\n  60 1\n  148 1\n"
            "effort spent: 0 work units\n"
        )
        code, out, err = run_cli(capsys, "classify", "1541955409")
        assert (code, err) == (0, "")
        assert "\nfactors:\n  499 1\n  1163 1\n  2657 1\nfactorization_complete: True\n" in out
