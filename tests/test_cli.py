from __future__ import annotations

import csv
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from decimal import ROUND_DOWN, Decimal, Inexact, Rounded, getcontext, localcontext
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import pytest

from superpatterns import Word, _dfa, automaton, binary_pmf, cli, is_superpattern, pmf_table, ternary_pmf
from superpatterns import waiting_time_gf
from superpatterns.classify import CountReport, _minimal_listing, count_formulas
from superpatterns.cli import main

from conftest import alive


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Child(NamedTuple):
    code: int
    peak_mb: float
    cpu_s: float
    out: str
    err: str


def run_in_child(*argv) -> Child:
    """main(argv) in a fresh interpreter: its exit code, peak RSS in MB, CPU
    seconds (interpreter start included), standard output and standard
    error.  The child reads its peak from VmHWM: ru_maxrss would keep the
    test process's peak across the exec.  Its CPU time is the growth of
    RUSAGE_CHILDREN over the run."""
    script = (
        "import sys\n"
        "from superpatterns.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(code, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cpu_s() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    start = cpu_s()
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True
    )
    cpu = cpu_s() - start
    *lines, last = proc.stdout.splitlines(keepends=True)
    code, peak_kb = map(int, last.split())
    return Child(code, peak_kb / 1024, cpu, "".join(lines), proc.stderr)


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

    @pytest.mark.parametrize("word", ["\uff11,\uff12,\uff11", "+1,2", "1_0,2"])
    def test_comma_form_takes_ascii_digits_only(self, capsys, word):
        # int() reads each of these parts; a word's letters are plain digits.
        code, out, err = run(capsys, "check", word, "--k", "2")
        assert (code, out) == (2, "")
        assert "malformed word" in err

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "check", "111221", "--k", "2", "--format", "plain")
        assert code == 0
        assert "superpattern: True" in out
        assert "minimal:      False" in out

    def test_comma_form_word_is_one_csv_field(self, capsys):
        code, out, _ = run(capsys, "check", "1,2,1,10", "--k", "2")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 8
        assert Word.parse(row[0]) == Word.parse("1,2,1,10")
        assert row[1:4] == ["2", "10", "True"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize(
        "argv,code,out,err",
        [
            (
                ["check", "123413214231", "--k", "4", "--format", "plain"],
                0,
                "word 123413214231 (alphabet 1..4, k=4)\n  superpattern: True\n  minimal:      True\n"
                "  strict:       True\n  minimum:      True\n",
                "",
            ),
            (
                ["check", "42134254124", "--k", "4"],
                3,
                "",
                "budget exceeded: the least superpattern length for k=4 over 5 letters is not proven:"
                " it lies between 7 and 11\n",
            ),
            (
                ["enumerate", "--d", "4", "--k", "4", "--n", "11", "--filter", "all", "--scope", "full"],
                0,
                "word\n# count: 0\n",
                "",
            ),
        ],
        ids=["minimum", "unproven", "below-least-length"],
    )
    def test_least_lengths_are_read_not_searched(self, argv, code, out, err):
        # When the least length was searched, the first took about 2 s of
        # CPU and 87 MB, and the second passed the state budget after 8.5 s
        # and 314 MB (2 vCPU, Python 3.11); the listing took 7.75 s to exit 3.
        child = run_in_child(*argv)
        assert (child.code, child.out, child.err) == (code, out, err)
        assert child.cpu_s < 1.0
        assert child.peak_mb < 40

    def test_minimum_superpattern_over_a_wide_alphabet(self, capsys):
        start = time.process_time()
        code, out, _ = run(capsys, "check", "1213121", "--k", "3", "--d", "9", "--format", "json")
        assert time.process_time() - start < 5
        assert code == 0
        assert json.loads(out)["is_minimum"] is True

    def test_distinct_letters_up_to_the_instance_cap(self, capsys):
        # The (w, 3) matcher tracks w**3 pattern instances, at most 2**16:
        # a word with 40 distinct letters is answered and one with 41 exits 3.
        forty = ",".join(map(str, range(1, 41)))
        code, out, err = run(capsys, "check", forty, "--k", "3")
        assert (code, err) == (1, "")
        missing = "111;112;121;122;132;211;212;213;221;231;312;321"
        assert out.splitlines()[1] == f'"{forty}",3,40,False,False,False,False,{missing}'
        code, out, err = run(capsys, "check", forty + ",41", "--k", "3")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: k=3, d=41 has d**k pattern instances, over the cap of 65536\n"
        # Only a matcher was asked for, so the refusal names no automaton.
        assert "automaton" not in err


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

    def test_comma_form_words_are_one_csv_field_each(self, capsys):
        argv = ["enumerate", "--n", "3", "--filter", "all", "--scope", "full", "--d", "10", "--k", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        header, *rows, trailer = csv.reader(io.StringIO(out))
        assert header == ["word"] and trailer == ["# count: 90"]
        assert all(len(row) == 1 for row in rows)
        words = {Word.parse(row[0], alphabet_size=10) for row in rows}
        assert Word.parse("10,9,10") in words and len(words) == 90
        assert all(is_superpattern(w, 2) for w in words)

    def test_budget_exceeded_exits_three(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "40", "--filter", "minimal")
        assert code == 3
        assert "budget" in err.lower()

    @pytest.mark.parametrize(
        "flt,n,count,what",
        [("minimal", 24, 25162920, "minimal-superpattern"), ("strict-minimal", 421, 1043322, "strict-minimal")],
    )
    def test_full_scope_is_capped_by_the_words_it_prints(self, capsys, flt, n, count, what):
        # --scope full walks every alternating word, six per class, and the
        # cap counts those: n - 1 is the longest listing answered.
        code, out, err = run(capsys, "enumerate", "--n", str(n), "--filter", flt, "--scope", "full")
        assert (code, out) == (3, "")
        assert err == (
            f"budget exceeded: {what} listing at n={n} would print {count} words of {n} letters,"
            " over the cap of 16777216 words or 436207616 letters\n"
        )
        strict = flt == "strict-minimal"
        assert len(next(_minimal_listing(n - 1, strict, None, prefix=())).letters) == n - 1

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_stays_flat(self, tmp_path, fmt):
        # 262,108 words: holding the whole listing peaked at 115 MB (csv) and
        # 130 MB (json) here; one word at a time stays near the interpreter's
        # own.
        path = tmp_path / "listing"
        argv = ["enumerate", "--d", "2", "--k", "2", "--n", "18", "--filter", "all", "--scope", "full"]
        child = run_in_child(*argv, "--format", fmt, "--out", str(path))
        assert child.code == 0
        assert child.peak_mb < 35
        last = "222222222222222212"
        if fmt == "json":
            tail = [f'    "{last}"', "  ],", '  "count": 262108', "}"]
        else:
            tail = [last, "# count: 262108"]
        assert path.read_text().splitlines()[-len(tail) :] == tail

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_a_wide_listing_stays_small(self):
        # The lazy (48, 2) automaton interns every state of the last DP level
        # but steps few of them, so its tables must grow only with the states
        # stepped: a transition row reserved per state and a column slot per
        # letter per component peaked at 104 MB (2 vCPU, Python 3.11).
        child = run_in_child("enumerate", "--n", "3", "--d", "48", "--k", "2", "--filter", "all", "--scope", "full")
        assert child.code == 0
        assert child.out.splitlines()[-1] == "# count: 2256"
        assert child.peak_mb < 80

    def test_a_refused_listing_writes_no_file(self, tmp_path):
        path = tmp_path / "listing"
        assert main(["enumerate", "--n", "17", "--filter", "all", "--out", str(path)]) == 3
        assert not path.exists()

    def test_one_long_word_is_listed_in_linear_time(self, capsys):
        start = time.process_time()
        argv = ["enumerate", "--d", "1", "--k", "1", "--n", "60000", "--filter", "all", "--scope", "full"]
        code, out, _ = run(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (0, "word\n" + "1" * 60000 + "\n# count: 1\n")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_a_quaternary_listing_past_its_budget_is_refused_quickly(self):
        # The lazy (4, 4) automaton took 3.0-4.0 s and 148 MB to count the
        # 9 words it then refused (2 vCPU, Python 3.11); the minimal DFA
        # closes in about 0.1 s.
        child = run_in_child("enumerate", "--d", "4", "--k", "4", "--n", "12", "--filter", "all", "--budget", "10")
        assert (child.code, child.out) == (3, "")
        assert child.err == (
            "budget exceeded: superpattern listing at n=12 would print 9 words of 12 letters,"
            " over the cap of 10 words or 50 letters\n"
        )
        assert child.cpu_s < 1.0
        assert child.peak_mb < 40

    def test_state_budget_bounds_a_listing_inside_the_word_space(self, capsys, monkeypatch, automata):
        # The (5, 4) states the listing's DP needs pass the automaton's
        # budget, so the listing stops there, before it counts its words.
        monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 5000)
        argv = ["enumerate", "--n", "12", "--filter", "all", "--scope", "full", "--d", "5", "--k", "4"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "budget exceeded: the automaton for k=4, d=5 exceeded 5000 states\n"
        assert len(automata) == 1 and alive(automata) == []

    # Up to n = 4,100 the strict-minimal count (n-4)^2 - 2 stays under 2^24
    # words; its letters pass the letter cap from n = 762 on.
    @pytest.mark.parametrize("n", [1000, 4100, 1_000_000, 30_000_000])
    @pytest.mark.parametrize(
        "args,what",
        [
            (["--filter", "all", "--scope", "full", "--d", "3", "--k", "3"], "superpattern"),
            (["--filter", "minimal"], "minimal-superpattern"),
            ([], "strict-minimal"),
        ],
        ids=["all", "minimal", "strict-minimal"],
    )
    def test_budget_past_the_text_limit_exits_three_at_once(self, capsys, n, args, what):
        # The forward pass stops at the first length of n's parity whose
        # count passes the cap, once the counts can no longer fall.
        start = time.process_time()
        code, out, err = run(capsys, "enumerate", "--n", str(n), *args)
        assert time.process_time() - start < 0.5
        assert (code, out) == (3, "")
        assert re.fullmatch(
            f"budget exceeded: {what} listing at n={n} would print at least [0-9]+ words of {n} letters,"
            " over the cap of 16777216 words or 436207616 letters\n",
            err,
        )

    @pytest.mark.parametrize("n,count", [(27, 527), (40, 1294)])
    def test_strict_minimal_listing_is_bounded_by_its_words(self, capsys, n, count):
        # 2^(n-2) alternating words, but only (n-4)^2 - 2 of them are printed.
        code, out, _ = run(capsys, "enumerate", "--n", str(n))
        assert code == 0
        assert out.splitlines()[-1] == f"# count: {count}" == f"# count: {(n - 4) ** 2 - 2}"
        assert len(out.splitlines()) == count + 2

    def test_more_pattern_letters_than_alphabet_answers_at_once(self, capsys):
        start = time.process_time()
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--filter", "all", "--d", "2", "--k", "8")
        assert time.process_time() - start < 0.5
        assert (code, out) == (0, "word\n# count: 0\n")

    def test_words_too_short_for_a_superpattern_answer_at_once(self, capsys):
        # A 5-superpattern needs 2 * 5 - 1 letters; the DP over (5, 5) words
        # of length 8 took 40 s and 825 MB to find none.
        start = time.process_time()
        code, out, _ = run(capsys, "enumerate", "--d", "5", "--k", "5", "--n", "8", "--filter", "all", "--scope", "full")
        assert time.process_time() - start < 0.5
        assert (code, out) == (0, "word\n# count: 0\n")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_two_at_parse_time(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "7", "--budget", budget])
        assert exc.value.code == 2
        assert "--budget: must be at least 1" in capsys.readouterr().err


class TestCounts:
    def test_csv_header_and_first_row(self, capsys):
        code, out, _ = run(capsys, "counts", "--n-from", "7", "--n-to", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,gamma_total,s_mu,s_a,s_total,beta_a,beta_b,beta_total"
        assert lines[1] == "7,7,7,7,42,14,11,25"

    def test_rejects_below_seven(self, capsys, tmp_path):
        code, _, err = run(capsys, "counts", "--n-from", "5", "--n-to", "9")
        assert code == 2
        path = tmp_path / "counts.csv"
        assert main(["counts", "--n-from", "5", "--n-to", "9", "--out", str(path)]) == 2
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
    def test_rows_written_one_by_one_match_the_whole_table(self, capsys, fmt):
        code, out, _ = run(capsys, "counts", "--n-from", "7", "--n-to", "300", "--format", fmt)
        reports = [count_formulas(n) for n in range(7, 301)]
        if fmt == "json":
            names = CountReport.__match_args__
            whole = json.dumps([{name: getattr(r, name) for name in names} for r in reports], indent=2) + "\n"
        else:
            header = "n,gamma_total,s_mu,s_a,s_total,beta_a,beta_b,beta_total"
            rows = (",".join(str(getattr(r, name)) for name in header.split(",")) for r in reports)
            whole = "\n".join([header, *rows]) + "\n"
        assert (code, out) == (0, whole)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_stays_flat(self, tmp_path, fmt):
        # Holding every row and the whole text peaked at 73 MB (csv) and
        # 77 MB (json) here; one row at a time stays near the interpreter's
        # own.
        path = tmp_path / "counts"
        argv = ["counts", "--n-from", "7", "--n-to", "6000", "--format", fmt, "--out", str(path)]
        child = run_in_child(*argv)
        assert child.code == 0
        assert child.peak_mb < 35
        assert path.read_text().splitlines()[-2 if fmt == "json" else -1].startswith(
            "  }" if fmt == "json" else "6000,"
        )

    def test_rejects_an_empty_range(self, capsys):
        code, out, err = run(capsys, "counts", "--n-from", "9", "--n-to", "7")
        assert code == 2
        assert out == ""
        assert "--n-from" in err


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
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "15", "--mode", "brute")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert [Fraction(row[1]) for row in rows] == [ternary_pmf(n) for n in range(1, 16)]

    def test_brute_column_reaches_past_the_word_space_budget(self, capsys):
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "20", "--mode", "both")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert [Fraction(row[4]) for row in rows] == [ternary_pmf(n) for n in range(1, 21)]
        assert all(row[5] == "True" for row in rows)
        code, out, _ = run(capsys, "pmf", "--mode", "brute", "--d", "2", "--n", "30")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert [Fraction(row[1]) for row in rows] == [binary_pmf(n) for n in range(1, 31)]

    @pytest.mark.parametrize("mode", ["exact", "brute"])
    def test_cumulative_column_is_the_running_sum(self, capsys, mode):
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "30", "--mode", mode)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        probabilities = [Fraction(row[1]) for row in rows]
        cumulative = [Fraction(row[3]) for row in rows]
        assert cumulative == list(accumulate(probabilities))
        # The support starts at 7; there the column rises strictly, below 1.
        assert all(p > 0 for p in probabilities[6:])
        assert all(a < b for a, b in zip(cumulative[5:], cumulative[6:]))
        assert cumulative[-1] < 1

    def test_tail_decays_geometrically(self, capsys):
        # The term ratio tends to 2/3, so the tail shrinks by about that per
        # extra length: ~1e-4 left at n=40, under 1e-6 from n=53 on.
        for n, low, high in ((40, Fraction(1, 10**6), Fraction(1, 10**4)), (53, 0, Fraction(1, 10**6))):
            code, out, _ = run(capsys, "pmf", "--d", "3", "--n", str(n))
            assert code == 0
            *_, last, tail_row = out.strip().splitlines()
            tail = Fraction(tail_row.split(",")[1])
            assert tail == 1 - Fraction(last.split(",")[3])
            assert low < tail < high

    def test_brute_mode_below_the_support_exits_two(self, capsys):
        code, out, err = run(capsys, "pmf", "--mode", "brute", "--d", "3", "--n", "5")
        assert (code, out) == (2, "")
        assert "least superpattern length 7" in err

    def test_budget_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--d", "3", "--n", "8", "--mode", "brute", "--budget", "100"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["brute", "both"])
    def test_brute_column_is_one_dp(self, capsys, monkeypatch, mode):
        calls = []
        real = cli._strict_counts

        def counted(d, k, n_max):
            calls.append(n_max)
            return real(d, k, n_max)

        monkeypatch.setattr(cli, "_strict_counts", counted)
        code, _, _ = run(capsys, "pmf", "--d", "3", "--n", "12", "--mode", mode)
        assert code == 0
        assert calls == [12]

    @pytest.mark.parametrize("mode", ["brute", "both"])
    def test_a_refused_brute_run_writes_no_file(self, tmp_path, monkeypatch, mode):
        # The DP makes the DFA before its first count, so a refused DFA
        # stops the run before the output file is opened.
        monkeypatch.setattr(_dfa, "_built", {})
        monkeypatch.setattr(_dfa, "STATE_BUDGET", 5)
        path = tmp_path / "pmf.csv"
        assert main(["pmf", "--d", "3", "--n", "12", "--mode", mode, "--out", str(path)]) == 3
        assert not path.exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_both_mode_memory_matches_exact_mode(self, tmp_path):
        # Holding every strict count peaked 4.4 MB over exact mode here; the
        # DP's counts feed both columns one length at a time.
        path = tmp_path / "pmf"
        peaks = []
        for mode in ("exact", "both"):
            child = run_in_child("pmf", "--d", "3", "--n", "6000", "--mode", mode, "--out", str(path))
            assert child.code == 0
            peaks.append(child.peak_mb)
        exact, both = peaks
        assert both - exact < 1


    @pytest.mark.parametrize("command", [["pmf", "--n", "8"], ["moments"], ["coupons"]])
    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_exit_two_at_parse_time(self, capsys, command, digits):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--digits", digits])
        assert exc.value.code == 2
        assert "--digits: must be at least 1" in capsys.readouterr().err


def fraction_decimal(value: Fraction, digits: int) -> str:
    """The decimal column as the Fraction route wrote it."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def pmf_by_fractions(d: int, n_max: int, fmt: str, digits: int) -> str:
    """pmf's exact-mode output from the list of Fractions pmf_table gives,
    its running sums and its tail."""
    probabilities = pmf_table(d, n_max)
    cumulative = list(accumulate(probabilities))
    tail = 1 - cumulative[-1]
    rows = list(zip(range(1, n_max + 1), probabilities, cumulative))
    if fmt == "json":
        table = [{"n": n, "probability": str(p), "cumulative": str(c)} for n, p, c in rows]
        return json.dumps({"d": d, "k": d, "n_max": n_max, "rows": table, "tail": str(tail)}, indent=2) + "\n"
    lines = ["n,probability_exact,probability_decimal,cumulative_exact"]
    lines += [f"{n},{p},{fraction_decimal(p, digits)},{c}" for n, p, c in rows]
    lines.append(f"tail,{tail},{fraction_decimal(tail, digits)},1")
    return "\n".join(lines) + "\n"


def gf_by_fractions(d: int, order: int, fmt: str) -> str:
    coefficients = waiting_time_gf(d).series_coefficients(order)
    if fmt == "json":
        return json.dumps({"d": d, "coefficients": {n: str(c) for n, c in enumerate(coefficients)}}, indent=2) + "\n"
    return "".join(["n,coefficient\n", *(f"{n},{c}\n" for n, c in enumerate(coefficients))])


class TestDecimalRows:
    # pmf and gf form their rows from Decimal pairs; the Fraction route they
    # replaced is the oracle, byte for byte, at the lengths the benchmark runs.
    @pytest.mark.parametrize(
        "d,n_max,fmt,digits",
        [
            (2, 3000, "csv", 12),
            (2, 3000, "json", 12),
            (3, 600, "csv", 12),
            (3, 600, "json", 12),
            (2, 3000, "csv", 5),
            (3, 600, "csv", 5),
            (2, 3000, "csv", 30),
            (3, 600, "csv", 30),
        ],
    )
    def test_pmf_matches_the_fraction_route(self, capsys, d, n_max, fmt, digits):
        argv = ["pmf", "--d", str(d), "--n", str(n_max), "--format", fmt, "--digits", str(digits)]
        assert run(capsys, *argv) == (0, pmf_by_fractions(d, n_max, fmt, digits), "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_gf_matches_the_fraction_route(self, capsys, fmt):
        assert run(capsys, "gf", "--d", "3", "--n", "3000", "--format", fmt) == (0, gf_by_fractions(3, 3000, fmt), "")

    def test_the_tail_is_exact(self, capsys):
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "600")
        assert code == 0
        label, tail, *_ = out.splitlines()[-1].split(",")
        assert label == "tail"
        assert Fraction(tail) == 1 - sum(pmf_table(3, 600))

    def test_both_mode_compares_past_the_default_precision(self, capsys):
        # 3^80 has 39 digits, so a comparison at 28 digits could not tell
        # neighbouring values apart.
        assert len(str(3**80)) == 39 > getcontext().prec
        code, out, _ = run(capsys, "pmf", "--d", "3", "--n", "80", "--mode", "both")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        assert len(rows) == 80
        assert all(row[5] == "True" and row[1] == row[4] for row in rows)
        assert Fraction(rows[-1][1]) == ternary_pmf(80)


class TestCallerContext:
    # Every decimal digit and exact pair comes from a context the command
    # makes, so a caller's own context changes no byte: not its rounding,
    # its exponent letter, or traps that would stop an inexact step.
    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--d", "3", "--n", "200"],
            ["pmf", "--d", "2", "--n", "200", "--format", "json"],
            ["pmf", "--d", "3", "--n", "40", "--mode", "brute"],
            ["pmf", "--d", "3", "--n", "40", "--mode", "brute", "--format", "json"],
            ["pmf", "--d", "3", "--n", "40", "--mode", "both", "--digits", "30"],
            ["gf", "--d", "3", "--n", "200"],
            ["moments", "--d", "3", "--digits", "3"],
            ["coupons", "--d", "7", "--digits", "3", "--format", "plain"],
        ],
        ids=" ".join,
    )
    def test_the_callers_context_changes_no_byte(self, capsys, argv):
        expected = run(capsys, *argv)
        assert expected[0] == 0
        with localcontext() as ctx:
            ctx.rounding = ROUND_DOWN
            ctx.capitals = 0
            ctx.traps[Inexact] = ctx.traps[Rounded] = True
            assert run(capsys, *argv) == expected


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

    @pytest.mark.parametrize(
        "argv", [["pmf", "--d", "4", "--n", "10"], ["gf", "--d", "1", "--n", "3"], ["moments", "--d", "5"]]
    )
    def test_unsolved_alphabet_exits_two_with_the_library_message(self, capsys, argv):
        # waiting_time_gf alone says which alphabets are solved; gf --d 1
        # is refused by it before the text-limit check divides by log10(d).
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: waiting-time generating functions are available for d = 2 and d = 3 only\n"


@pytest.fixture
def default_int_digits():
    """The interpreter's default limit on converting integers to text."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.usefixtures("default_int_digits")
class TestIntegerTextLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--d", "2", "--n", "2200"],
            ["pmf", "--d", "2", "--n", "2200", "--format", "json"],
            ["gf", "--d", "3", "--n", "2200"],
            *(
                ["pmf", "--mode", mode, "--d", "2", "--n", "2200", "--format", fmt]
                for mode in ("brute", "both")
                for fmt in ("csv", "json")
            ),
        ],
        ids=" ".join,
    )
    def test_exact_tables_print_past_the_limit(self, capsys, argv):
        # pmf and gf print Decimal integers, which the limit does not cover,
        # so a limit their values pass changes no byte; brute and both modes
        # read the DP's counts into the recurrence as Decimal integers too.
        expected = run(capsys, *argv)
        assert expected[0] == 0
        sys.set_int_max_str_digits(640)  # the fixture restores the default
        assert run(capsys, *argv) == expected

    def test_counts_at_the_edge_of_the_limit(self, capsys):
        code, out, _ = run(capsys, "counts", "--n-from", "14258", "--n-to", "14258")
        assert code == 0 and out.splitlines()[-1].startswith("14258,")
        sys.set_int_max_str_digits(640)  # the fixture restores the default
        for fmt in ("csv", "json"):
            code, out, _ = run(capsys, "counts", "--n-from", "2105", "--n-to", "2105", "--format", fmt)
            assert code == 0
            assert out.splitlines()[-1].startswith("2105,") or json.loads(out)[0]["n"] == 2105
        code, out, err = run(capsys, "counts", "--n-from", "2106", "--n-to", "2106")
        assert (code, out) == (2, "")
        assert "--n-to 2106: s_total passes the 640-digit limit" in err

    def test_unprintable_counts_are_refused_at_once(self, capsys):
        # Far past the limit, s_total itself would take gigabytes to form.
        for n_from, n_to in ((14259, 14259), (7, 10**9), (7, 10**10)):
            start = time.process_time()
            code, out, err = run(capsys, "counts", "--n-from", str(n_from), "--n-to", str(n_to))
            assert time.process_time() - start < 0.5
            assert (code, out) == (2, "")
            assert f"--n-to {n_to}: s_total passes the 4300-digit limit" in err

    def test_coupons_over_the_limit(self, capsys):
        code, out, err = run(capsys, "coupons", "--d", "10000")
        assert (code, out) == (2, "")
        assert "coupons --d 10000: the exact expectations pass the 4300-digit limit" in err
        assert run(capsys, "coupons", "--d", "9000")[0] == 0

    def test_coupons_far_over_the_limit_are_refused_at_once(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "coupons", "--d", "100000")
        assert time.process_time() - start < 0.5
        assert (code, out) == (2, "")
        assert "coupons --d 100000" in err


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, capsys):
        argv = ["gf", "--d", "2", "--n", "5"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "superpatterns", *argv], capture_output=True, env=env, check=False
        )
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


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

    def test_state_budget_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(_dfa, "_built", {})
        monkeypatch.setattr(_dfa, "STATE_BUDGET", 1000)
        code, out, err = run(capsys, "simulate", "--d", "4", "--k", "4", "--trials", "10")
        assert code == 3
        assert out == ""
        assert "exceeded 1000 states" in err

    def test_zero_pattern_length_exits_two(self, capsys):
        code, out, err = run(capsys, "simulate", "--d", "300", "--k", "0")
        assert code == 2
        assert out == ""
        assert "k >= 1" in err

    def test_byte_wide_alphabet_exits_three_at_once(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "simulate", "--d", "256", "--k", "2", "--trials", "5")
        assert time.process_time() - start < 0.5
        assert code == 3
        assert out == ""
        assert "over 255" in err

    def test_wide_binary_alphabet_exits_three_at_once(self, capsys):
        start = time.process_time()
        code, out, err = run(capsys, "simulate", "--d", "200", "--k", "2", "--trials", "5")
        assert time.process_time() - start < 0.5
        assert code == 3
        assert out == ""
        assert "k=2, d=200 needs at least k^d" in err

    def test_golden_plain(self, capsys):
        code, out, _ = run(capsys, "simulate", "--d", "2", "--k", "2", "--trials", "20", "--seed", "3", "--format", "plain")
        assert code == 0
        assert out == (
            "d=2 k=2 trials=20 seed=3\n"
            "sample mean     = 5.9\n"
            "sample variance = 9.147368421052631\n"
            "histogram:\n"
            "  3: 1\n  4: 5\n  5: 7\n  6: 3\n  7: 2\n  12: 1\n  16: 1\n"
        )

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


class TestPatternLengthCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--d", "6", "--k", "6", "--n", "6", "--filter", "all", "--scope", "full"],
            ["simulate", "--d", "6", "--k", "6", "--trials", "1"],
            # d**k is over MAX_INSTANCES here, yet the cap on pattern length,
            # checked first, decides the exit code.
            ["enumerate", "--d", "9", "--k", "9", "--n", "17", "--filter", "all", "--scope", "full"],
            ["simulate", "--d", "9", "--k", "6", "--trials", "1"],
            # Up to isomorphism, the listing checks the cap before it asks
            # whether relabelling keeps superpattern status.
            ["enumerate", "--d", "7", "--k", "6", "--n", "17", "--filter", "all"],
            ["enumerate", "--d", "9", "--k", "9", "--n", "17", "--filter", "all"],
        ],
        ids=["enumerate", "simulate", "enumerate-9,9", "simulate-9,6", "upto-iso-7,6", "upto-iso-9,9"],
    )
    def test_k_six_exits_two_at_once(self, capsys, argv):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 0.5
        assert (code, out) == (2, "")
        assert f"k={argv[argv.index('--k') + 1]} is over the cap of 5" in err

    @pytest.mark.parametrize("scope", ["upto-iso", "full"])
    def test_k_zero_is_refused_as_such(self, capsys, scope):
        argv = ["enumerate", "--d", "2", "--k", "0", "--n", "3", "--filter", "all", "--scope", scope]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "need d >= 1 and k >= 1" in err


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


class TestReadmeExamples:
    def test_cli_examples_exit_zero(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = []
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["superpatterns"]:
                commands.append(argv[1:])
            elif argv[:3] == ["python", "-m", "superpatterns"]:
                commands.append(argv[3:])
        assert len(commands) == len(block.splitlines())
        out = str(tmp_path / "out")
        failed = [argv for argv in commands if main([*argv, "--out", out]) != 0]
        assert failed == []


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        assert main(["counts", "--n-from", "7", "--n-to", "7", "--out", str(path)]) == 0
        assert path.read_text().splitlines()[1] == "7,7,7,7,42,14,11,25"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_an_out_that_cannot_be_written_exits_two(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
        code, out, err = run(capsys, "check", "1213121", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")

    def test_a_reader_that_closes_stdout_ends_the_output_quietly(self):
        # A full listing of 12-letter words runs far past the pipe's buffer,
        # so the child is still writing when its reader stops after one line.
        argv = ["enumerate", "--n", "12", "--d", "3", "--k", "3", "--filter", "all", "--scope", "full"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen(
            [sys.executable, "-m", "superpatterns", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline() == b"word\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (0, b"")


class TestCheckGolden:
    # Outputs captured from the position-by-position backtracker, before the
    # search was rewritten; the containment search must reproduce them byte
    # for byte.  Cases cover k = 2..5, the empty word, 24-letter (4,4) words
    # and QUATERNARY_EXAMPLE, each in csv, json and plain.  The 12-letter
    # minimum (4,4) word, in csv, was captured once the minimum-length search
    # could answer it.  The same word over five letters, with --d 5, was
    # captured once the k = 4 bound fell to 11 for d >= 5: it is not minimum,
    # and no search runs to say so.
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
    # function's series.  The (6, 6) enumerate and simulate cases pin the
    # refusal of patterns longer than 5.  The (5, 5) enumerate case at n = 8
    # was captured from the DP that walked those words before finding none.
    CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_byte_identical(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def _written_cases() -> list[dict]:
    """The first golden case of each (subcommand, format) pair that answers,
    and every refused one."""
    answered: dict[tuple[str, str], dict] = {}
    refused = []
    for case in TestCheckGolden.CASES + TestScanGolden.CASES:
        argv = case["argv"]
        if case["exit"] in (2, 3):
            refused.append(case)
        else:
            answered.setdefault((argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "csv"), case)
    return [*answered.values(), *refused]


class TestGoldenToAFile:
    # The same bytes go to --out as to stdout, and a refusal, which comes
    # before the first row is formed, opens no file.
    @pytest.mark.parametrize("case", _written_cases(), ids=lambda c: " ".join(c["argv"]))
    def test_the_file_holds_the_golden_stdout(self, capsys, tmp_path, case):
        path = tmp_path / "out"
        code, out, err = run(capsys, *case["argv"], "--out", str(path))
        assert (code, out, err) == (case["exit"], "", case["stderr"])
        if case["stdout"]:
            assert path.read_text() == case["stdout"]
        else:
            assert not path.exists()
