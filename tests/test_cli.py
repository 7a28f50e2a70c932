from __future__ import annotations

import json
from pathlib import Path

import pytest

from superpatterns.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_superpattern_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "1213121", "--k", "3", "--format", "csv")
        assert code == 0
        assert "True,True,True,True" in out

    def test_non_superpattern_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "123123", "--k", "3", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["is_superpattern"] is False
        assert "111" in payload["missing_patterns"]

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "12x", "--k", "3")
        assert code == 2
        assert "malformed" in err

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "check", "111221", "--k", "2", "--format", "plain")
        assert code == 0
        assert "superpattern: True" in out
        assert "minimal:      False" in out


class TestEnumerate:
    def test_seven_upto_iso(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7", "--format", "plain")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 7"
        assert lines[0] == "1213121"

    def test_seven_full(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7", "--scope", "full", "--format", "plain")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 42"

    def test_none_at_six(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--format", "plain")
        assert code == 0
        assert out.strip() == "count: 0"

    def test_minimal_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "8", "--filter", "minimal", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 28

    @pytest.mark.parametrize("flt", ["minimal", "strict-minimal"])
    @pytest.mark.parametrize("dk", [("4", "3"), ("3", "4"), ("2", "2")])
    def test_alternating_filters_need_ternary(self, capsys, flt, dk):
        code, out, err = run(capsys, "enumerate", "--n", "8", "--filter", flt, "--d", dk[0], "--k", dk[1])
        assert code == 2
        assert out == ""
        assert "--d 3 --k 3" in err

    @pytest.mark.parametrize("scope", ["upto-iso", "full"])
    def test_negative_length_exits_two(self, capsys, scope):
        code, out, err = run(capsys, "enumerate", "--n", "-3", "--filter", "all", "--scope", scope)
        assert code == 2
        assert out == ""
        assert "word length" in err

    def test_budget_exceeded_exits_three(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "40", "--filter", "minimal")
        assert code == 3
        assert "budget" in err.lower()

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERPATTERN_BUDGET", "16")
        code, _, err = run(capsys, "enumerate", "--n", "8", "--filter", "minimal")
        assert code == 3
        monkeypatch.setenv("SUPERPATTERN_BUDGET", "1000000")
        code, out, _ = run(capsys, "enumerate", "--n", "8", "--filter", "minimal", "--format", "json")
        assert code == 0


class TestCounts:
    def test_csv_header_and_first_row(self, capsys):
        code, out, _ = run(capsys, "counts", "--n-from", "7", "--n-to", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,gamma_total,s_mu,s_a,s_total,beta_a,beta_b,beta_total"
        assert lines[1] == "7,7,7,7,42,14,11,25"

    def test_rejects_below_seven(self, capsys):
        code, _, err = run(capsys, "counts", "--n-from", "5", "--n-to", "9")
        assert code == 2


class TestPmf:
    def test_exact_rows(self, capsys):
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,probability_exact,probability_decimal,cumulative_exact"
        assert lines[7].startswith("7,14/729,")
        assert lines[-1].startswith("tail,")

    def test_both_mode_matches(self, capsys):
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "8", "--mode", "both")
        assert code == 0
        for line in out.strip().splitlines()[1:-1]:
            assert line.endswith("True")

    def test_brute_mode_budget(self, capsys):
        code, _, err = run(capsys, "pmf", "--d", "3", "--n", "15", "--mode", "brute")
        assert code == 3


class TestMomentsAndGf:
    def test_moments_output(self, capsys):
        code, out, _ = run(capsys, "moments", "--d", "3", "--format", "plain")
        assert code == 0
        assert "217/16" in out
        assert "13.5625" in out

    def test_binary_moments(self, capsys):
        code, out, _ = run(capsys, "moments", "--d", "2")
        assert code == 0
        assert "mean,5,5" in out
        assert "variance,4,4" in out

    def test_gf_negative_order_exits_two(self, capsys):
        code, out, err = run(capsys, "gf", "--d", "3", "--n", "-1")
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_gf_order_zero(self, capsys):
        code, out, _ = run(capsys, "gf", "--d", "2", "--n", "0")
        assert code == 0
        assert out == "n,coefficient\n0,0\n"

    def test_gf_coefficients(self, capsys):
        code, out, _ = run(capsys, "gf", "--d", "3", "--n", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[8] == "7,14/729"


class TestSimulate:
    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--d", "2", "--k", "2", "--trials", "2000", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 2000
        assert payload["seed"] == 5
        assert sum(payload["histogram"].values()) == 2000
        assert min(int(n) for n in payload["histogram"]) >= 3

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", "--d", "3", "--k", "3", "--trials", "3000", "--seed", "17"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_golden_csv(self, tmp_path):
        # Pins the simulator's letter stream end to end; a stream change must
        # update this file and be recorded as such.
        out = tmp_path / "golden.csv"
        argv = ["simulate", "--d", "3", "--k", "3", "--trials", "300", "--seed", "1", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"n,count\n7,6\n8,21\n9,30\n10,30\n11,37\n12,21\n13,35\n14,28\n15,16\n16,15\n"
            b"17,15\n18,12\n19,7\n20,7\n21,4\n22,3\n23,5\n24,2\n25,2\n26,1\n30,1\n34,1\n42,1\n"
        )


class TestVerify:
    def test_counterexample_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counterexample", "--format", "plain")
        assert code == 0
        assert "FAIL" not in out

    def test_oeis_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oeis")
        assert code == 0

    @pytest.mark.parametrize("suite", ["structure", "all"])
    @pytest.mark.parametrize("n", ["6", "0", "-3"])
    def test_structure_suite_below_seven_exits_two(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_structure_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "structure", "--n", "8", "--format", "plain")
        assert code == 0
        assert "flanking-pairs-on-strict n=7" in out


class TestCoupons:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "coupons", "--d", "3", "--k", "3")
        assert code == 0
        assert "single_collection,11/2,5.5" in out
        assert "all_words,33/2,16.5" in out


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        assert main(["counts", "--n-from", "7", "--n-to", "7", "--out", str(path)]) == 0
        assert path.read_text().splitlines()[1] == "7,7,7,7,42,14,11,25"


class TestCheckGolden:
    # Outputs captured from the position-by-position backtracker, before the
    # search was rewritten; the containment search must reproduce them byte
    # for byte.  Cases cover k = 2..5, the empty word, 24-letter (4,4) words
    # and QUATERNARY_EXAMPLE, each in csv, json and plain.
    CASES = json.loads((Path(__file__).parent / "golden" / "check.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][1:]))
    def test_byte_identical(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


class TestScanGolden:
    # CLI outputs pinned byte for byte, exit code and stderr included.  The
    # enumerate, verify --suite structure and pmf --mode brute|both cases were
    # captured from the word-by-word scans, before counts moved to the
    # transfer-matrix DP and listings to the DP-pruned walker, budget errors
    # included.  The exact-mode pmf, gf, moments, counts, coupons and
    # verify --suite oeis|counterexample cases were captured while pmf still
    # summed the closed forms term by term, before it read the generating
    # function's series.
    CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_byte_identical(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
