"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
emit.
"""

from __future__ import annotations

import time
from fractions import Fraction

from superpatterns import (
    binary_pmf,
    brute_force_pmf,
    count_beta_bruteforce,
    count_formulas,
    count_minimal_upto_iso,
    count_strict_minimal_upto_iso,
    ends_with_minimum_superpattern,
    has_flanking_pairs,
    is_superpattern,
    iter_strict_minimal_upto_iso,
    iter_strict_superpatterns,
    min_superpattern_length,
    moments_from_gf,
    pmf_table,
    simulate_tau,
    strict_counts_by_length,
    ternary_pmf,
    waiting_time_gf,
)
from superpatterns.oeis import check_reference_sequences

from conftest import all_words

THE_SEVEN = {
    "1213121", "1213212", "1231213", "1231231", "1231321", "1232123", "1232132",
}


class _Criterion:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{self.name}]: {verdict} ({elapsed:.2f}s)")
        return False


def test_criterion_01_minimum_length_and_empty_length_six():
    with _Criterion(1, "minimum length 7; no superpattern among all 3^6 words"):
        assert min_superpattern_length(3, 3) == 7
        assert sum(1 for w in all_words(3, 6) if is_superpattern(w, 3)) == 0


def test_criterion_02_the_seven_and_the_full_fortytwo():
    with _Criterion(2, "the seven length-7 strict minimal words; 42 in full"):
        words = list(iter_strict_minimal_upto_iso(7))
        assert {str(w) for w in words} == THE_SEVEN
        assert strict_counts_by_length(3, 3, 7)[7] == 42 == 6 * len(words)


def test_criterion_03_counting_formulas_match_exhaustive_scans():
    n_hi = 14
    with _Criterion(3, f"closed forms vs exhaustive scans for n=7..{n_hi}"):
        scan = strict_counts_by_length(3, 3, n_hi)
        for n in range(7, n_hi + 1):
            report = count_formulas(n)
            assert report.gamma_total == 2 ** (n - 2) - (n - 2) ** 2
            assert report.s_mu == (n - 4) ** 2 - 2
            assert scan[n] == report.s_total == 6 * report.s_a, n
            assert count_minimal_upto_iso(n) == report.gamma_total, n
            assert count_strict_minimal_upto_iso(n) == report.s_mu, n
            assert count_beta_bruteforce(n) == (n * n - 7 * n + 14, 3 * n - 10), n


def test_criterion_04_pmf_identities():
    with _Criterion(4, "closed-form PMFs equal brute-force oracle"):
        for n in range(7, 14):
            assert ternary_pmf(n) == brute_force_pmf(3, 3, n), n
        for n in range(3, 21):
            assert binary_pmf(n) == brute_force_pmf(2, 2, n), n


def test_criterion_05_generating_functions_expand_to_the_pmfs():
    with _Criterion(5, "series of the generating functions and PMF tables match the PMFs to order 200"):
        g2 = waiting_time_gf(2)
        g3 = waiting_time_gf(3)
        assert g2.evaluate(1) == 1
        assert g3.evaluate(1) == 1
        cs2 = g2.series_coefficients(200)
        cs3 = g3.series_coefficients(200)
        assert cs2[0] == 0 and cs3[0] == 0
        t2 = pmf_table(2, 200)
        t3 = pmf_table(3, 200)
        for n in range(1, 201):
            assert cs2[n] == t2[n - 1] == binary_pmf(n), n
            assert cs3[n] == t3[n - 1] == ternary_pmf(n), n


def test_criterion_06_exact_moments():
    with _Criterion(6, "moments: (5, 4) binary; mean 217/16 ternary; truncated sum"):
        assert moments_from_gf(waiting_time_gf(2)) == (5, 4)
        mean, _ = moments_from_gf(waiting_time_gf(3))
        assert mean == Fraction(217, 16)
        assert float(mean) == 13.5625
        truncated = sum(n * ternary_pmf(n) for n in range(7, 201))
        assert abs(truncated - Fraction(217, 16)) < Fraction(1, 10**20)


def test_criterion_07_seeded_simulation():
    with _Criterion(7, "10^6-trial seeded simulations hit the exact means"):
        seed = 20260808
        trials = 1_000_000
        binary = simulate_tau(2, 2, trials, seed)
        assert abs(binary.sample_mean - 5.0) < 0.01
        assert min(binary.histogram) >= 3
        ternary = simulate_tau(3, 3, trials, seed)
        assert abs(ternary.sample_mean - 13.5625) < 0.03
        assert min(ternary.histogram) >= 7
        assert simulate_tau(2, 2, trials, seed) == binary
        assert simulate_tau(3, 3, trials, seed) == ternary


def test_criterion_08_structure_of_strict_superpatterns():
    with _Criterion(8, "flanking pairs (n<=12) and terminal minimum embedding (8..14)"):
        for n in range(7, 13):
            for w in iter_strict_superpatterns(3, 3, n):
                assert has_flanking_pairs(w), (n, str(w))
        for n in range(8, 15):
            for w in iter_strict_minimal_upto_iso(n):
                assert ends_with_minimum_superpattern(w), (n, str(w))


def test_criterion_09_oeis_reference_sequences():
    with _Criterion(9, "counts match the stored A024012 / A008865 terms, n=7..15"):
        checks = check_reference_sequences()
        assert len(checks) == 18
        for c in checks:
            assert c.ok, (c.label, c.n, c.computed, c.reference)


def test_criterion_10_quaternary_counterexample():
    with _Criterion(10, "121312141213121: strict for [4]^4, no 12-letter minimum inside"):
        from superpatterns import verify_quaternary_counterexample

        assert verify_quaternary_counterexample()


def test_criterion_11_minimum_length_bounds():
    with _Criterion(11, "least lengths 3 and 7; 7 attains the d=3 bound d^2-2d+4"):
        assert min_superpattern_length(2, 2) == 3
        n33 = min_superpattern_length(3, 3)
        assert n33 == 7
        assert n33 <= 3 * 3 - 2 * 3 + 4 == 7
