from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from statistics import NormalDist

import pytest

from superpatterns import (
    Word,
    binary_pmf,
    binary_waiting_time_gf,
    brute_force_pmf,
    classify,
    coupon_expectations,
    get_automaton,
    moments_from_gf,
    pmf_table,
    simulate_tau,
    ternary_pmf,
    ternary_waiting_time_gf,
    waiting_time_gf,
)
from superpatterns.waiting import _letter_decoder

from conftest import all_words, tau_online


class TestBinaryPmf:
    @pytest.mark.parametrize("n,expected", [(3, Fraction(1, 4)), (5, Fraction(3, 16)), (2, 0), (1, 0)])
    def test_values(self, n, expected):
        assert binary_pmf(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            binary_pmf(0)

    def test_matches_oracle_through_twenty(self):
        for n in range(3, 21):
            assert binary_pmf(n) == brute_force_pmf(2, 2, n), n


class TestTernaryPmf:
    @pytest.mark.parametrize(
        "n,expected",
        [(7, Fraction(42, 2187)), (8, Fraction(336, 6561)), (6, 0), (1, 0)],
    )
    def test_values(self, n, expected):
        assert ternary_pmf(n) == expected

    def test_matches_oracle_through_twelve(self):
        for n in range(7, 13):
            assert ternary_pmf(n) == brute_force_pmf(3, 3, n), n

    def test_oracle_examples(self):
        assert brute_force_pmf(3, 3, 7) == Fraction(42, 2187)
        assert brute_force_pmf(3, 3, 6) == 0
        assert brute_force_pmf(2, 2, 4) == Fraction(4, 16)


class TestGeneratingFunctions:
    def test_normalization(self):
        assert binary_waiting_time_gf().evaluate(1) == 1
        assert ternary_waiting_time_gf().evaluate(1) == 1

    def test_series_match_pmfs(self):
        cs2 = binary_waiting_time_gf().series_coefficients(25)
        cs3 = ternary_waiting_time_gf().series_coefficients(25)
        for n in range(1, 26):
            assert cs2[n] == binary_pmf(n)
            assert cs3[n] == ternary_pmf(n)

    def test_binary_moments(self):
        assert moments_from_gf(binary_waiting_time_gf()) == (5, 4)

    def test_ternary_mean_exact(self):
        mean, _ = moments_from_gf(ternary_waiting_time_gf())
        assert mean == Fraction(217, 16)
        assert float(mean) == 13.5625

    def test_ternary_variance_cross_checked_by_truncated_series(self):
        # The ternary variance is a derived quantity; confirm the quotient-rule
        # value against a straight truncated-series computation of the moments.
        mean, variance = moments_from_gf(ternary_waiting_time_gf())
        mean_trunc = sum(n * ternary_pmf(n) for n in range(7, 201))
        second_trunc = sum(n * n * ternary_pmf(n) for n in range(7, 201))
        assert abs(mean_trunc - mean) < Fraction(1, 10**20)
        assert abs(second_trunc - (variance + mean * mean)) < Fraction(1, 10**17)
        assert variance == Fraction(4623, 256)

    def test_dispatch(self):
        assert waiting_time_gf(2).evaluate(0) == 0
        with pytest.raises(ValueError):
            waiting_time_gf(4)


class TestTauOnline:
    def test_examples(self):
        assert tau_online([1, 2, 1, 3, 1, 2, 1], 3) == 7
        assert tau_online([1, 1, 1, 2, 2, 1], 2) == 6
        assert tau_online([1, 2, 1], 2) == 3

    def test_consumes_only_to_the_stopping_point(self):
        def stream():
            yield from (1, 2, 1, 3, 1, 2, 1)
            raise AssertionError("detector read past the stopping time")

        assert tau_online(stream(), 3) == 7

    def test_exhausted_stream_raises(self):
        with pytest.raises(ValueError):
            tau_online([1, 2, 1], 3)

    def test_equals_strictness_on_all_length_seven_words(self):
        for w in all_words(3, 7):
            try:
                t = tau_online(w.letters, 3)
            except ValueError:
                t = None
            assert (t == 7) == classify(w, 3).is_strict
            if t is not None:
                assert t == 7  # nothing shorter can be a superpattern

    def test_agrees_with_automaton_on_random_streams(self):
        auto = get_automaton(3, 3)
        rng = random.Random(1234)
        for _ in range(150):
            letters = [rng.randrange(1, 4) for _ in range(30)]
            expected = auto.first_superpattern_time(letters)
            if expected is None:
                with pytest.raises(ValueError):
                    tau_online(letters, 3)
            else:
                assert tau_online(letters, 3) == expected

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            tau_online([1, 0, 2], 2)


class TestSimulation:
    def test_deterministic_given_seed(self):
        a = simulate_tau(3, 3, 5000, 99)
        b = simulate_tau(3, 3, 5000, 99)
        assert a == b

    def test_different_seeds_differ(self):
        assert simulate_tau(3, 3, 5000, 1) != simulate_tau(3, 3, 5000, 2)

    def test_histogram_accounts_for_every_trial(self):
        s = simulate_tau(3, 3, 20_000, 7)
        assert sum(s.histogram.values()) == s.trials == 20_000
        assert s.d == 3 and s.k == 3 and s.seed == 7

    def test_no_mass_below_minimum_lengths(self):
        assert min(simulate_tau(3, 3, 20_000, 5).histogram) >= 7
        assert min(simulate_tau(2, 2, 20_000, 5).histogram) >= 3

    def test_mean_in_the_right_neighbourhood(self):
        s = simulate_tau(3, 3, 50_000, 11)
        assert abs(s.sample_mean - 13.5625) < 0.15
        s2 = simulate_tau(2, 2, 50_000, 11)
        assert abs(s2.sample_mean - 5.0) < 0.08

    def test_trivial_alphabet(self):
        s = simulate_tau(1, 1, 100, 3)
        assert s.histogram == {1: 100}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_tau(2, 3, 10, 0)
        with pytest.raises(ValueError):
            simulate_tau(3, 3, 0, 0)

    @pytest.mark.parametrize("n1,n2", [(1, 2), (1000, 1001), (1000, 5000)])
    def test_histograms_grow_by_prefix_within_a_block(self, n1, n2):
        # The first n1 trials of a run are the whole of a shorter run with the
        # same seed, so every bin can only grow with the trial count.
        small = simulate_tau(3, 3, n1, 42).histogram
        large = simulate_tau(3, 3, n2, 42).histogram
        assert all(c <= large.get(n, 0) for n, c in small.items())

    def test_histograms_grow_by_prefix_across_a_block_boundary(self):
        block = 1 << 16
        small = simulate_tau(3, 3, block, 42).histogram
        large = simulate_tau(3, 3, block + 500, 42).histogram
        assert all(c <= large.get(n, 0) for n, c in small.items())
        assert sum(large.values()) - sum(small.values()) == 500

    def test_golden_histogram(self):
        # Pins the letter stream: any change to how letters are drawn from a
        # seed changes this histogram and must be recorded as a stream change.
        assert simulate_tau(3, 3, 300, 1).histogram == {
            7: 6, 8: 21, 9: 30, 10: 30, 11: 37, 12: 21, 13: 35, 14: 28, 15: 16,
            16: 15, 17: 15, 18: 12, 19: 7, 20: 7, 21: 4, 22: 3, 23: 5, 24: 2,
            25: 2, 26: 1, 30: 1, 34: 1, 42: 1,
        }

    @pytest.mark.parametrize("d", [255, 256, 300])
    def test_alphabets_beyond_a_byte_terminate(self, d):
        assert simulate_tau(d, 1, 50, 7).histogram == {1: 50}


class TestLetterDecoder:
    @pytest.mark.parametrize("d", [*range(1, 17), 255, 256, 300])
    def test_accepted_units_cover_every_digit_string_equally(self, d):
        # Enumerate every unit value: the accepted ones must map onto
        # {1..d}^j with one common multiplicity, so each letter is exactly
        # uniform and independent of the others in its unit.
        width, expand = _letter_decoder(d)
        outputs = Counter(tuple(expand(u.to_bytes(width, "little"))) for u in range(256**width))
        outputs.pop((), None)
        j = len(next(iter(outputs)))
        assert set(outputs) == set(product(range(1, d + 1), repeat=j))
        assert len(set(outputs.values())) == 1
        # j is the most digits one unit can hold (capped at 8 per byte)
        assert d**j <= 256**width and (j == 8 or d ** (j + 1) > 256**width)

    def test_ternary_packs_five_letters_into_most_bytes(self):
        width, expand = _letter_decoder(3)
        lengths = Counter(len(expand(bytes([b]))) for b in range(256))
        assert width == 1
        assert lengths == {5: 243, 0: 13}


def _chi_square_critical(df: int, alpha: float) -> float:
    """Upper-alpha quantile of chi-square(df), Wilson-Hilferty approximation."""
    z = NormalDist().inv_cdf(1 - alpha)
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


def _chi_square(histogram: dict[int, int], pmf, trials: int) -> tuple[float, int]:
    """Goodness-of-fit statistic and degrees of freedom of a histogram against
    an exact PMF.  Lengths get their own bin while both the bin and the mass
    beyond it expect at least 5 trials; the last bin pools the whole tail.
    The bins depend on the PMF and the trial count only, not on the data."""
    expected: list[Fraction] = []
    observed: list[int] = []
    beyond = Fraction(1)
    n = 1
    while True:
        p = pmf(n)
        if 0 < trials * p < 5 or trials * (beyond - p) < 5:
            break
        if p:
            expected.append(trials * p)
            observed.append(histogram.get(n, 0))
        beyond -= p
        n += 1
    expected.append(trials * beyond)
    observed.append(sum(c for m, c in histogram.items() if m >= n))
    statistic = sum(float((o - e) ** 2 / e) for o, e in zip(observed, expected))
    return statistic, len(expected) - 1


class TestSimulatedDistribution:
    TRIALS = 100_000
    ALPHA = 1e-6

    @pytest.mark.parametrize("d,pmf", [(2, binary_pmf), (3, ternary_pmf)])
    def test_histogram_fits_the_exact_pmf(self, d, pmf):
        histogram = simulate_tau(d, d, self.TRIALS, 2026).histogram
        assert sum(c for n, c in histogram.items() if pmf(n) == 0) == 0
        statistic, df = _chi_square(histogram, pmf, self.TRIALS)
        assert df >= 10
        assert statistic < _chi_square_critical(df, self.ALPHA), (statistic, df)

    def test_a_shifted_pmf_is_rejected(self):
        # The check has power: the ternary histogram moved one length later
        # does not fit the ternary PMF.
        histogram = simulate_tau(3, 3, self.TRIALS, 2026).histogram
        shifted = {n + 1: c for n, c in histogram.items()}
        statistic, df = _chi_square(shifted, ternary_pmf, self.TRIALS)
        assert statistic > _chi_square_critical(df, self.ALPHA)

    @pytest.mark.parametrize("df", [10, 16, 20, 34, 60])
    def test_critical_value_sits_at_the_level(self, df):
        # For even df the chi-square tail is a finite Poisson sum,
        # P(X > x) = exp(-x/2) * sum_{i < df/2} (x/2)^i / i!; at the
        # approximate critical value it lies between alpha/2 and alpha.
        half = _chi_square_critical(df, self.ALPHA) / 2
        tail = math.exp(-half) * sum(half**i / math.factorial(i) for i in range(df // 2))
        assert self.ALPHA / 2 < tail <= self.ALPHA


class TestPmfTable:
    def test_single_entry_table(self):
        t = pmf_table(3, 7)
        assert t.entries[7] == Fraction(42, 2187)
        assert all(t.entries[n] == 0 for n in range(1, 7))
        assert t.cumulative[7] == Fraction(42, 2187)

    def test_binary_start(self):
        t = pmf_table(2, 3)
        assert t.entries[3] == Fraction(1, 4)

    def test_partial_sums_strictly_increase_on_support(self):
        t = pmf_table(3, 30)
        for n in range(7, 31):
            assert t.entries[n] > 0
            assert t.cumulative[n] > t.cumulative[n - 1]
            assert t.cumulative[n] < 1

    def test_tail_decays_geometrically(self):
        # The term ratio tends to 2/3, so the tail shrinks by about that per
        # extra length: ~1e-4 left at n=40, under 1e-6 from n=53 on.
        t40 = pmf_table(3, 40)
        assert t40.tail == 1 - t40.cumulative[40]
        assert Fraction(1, 10**6) < t40.tail < Fraction(1, 10**4)
        t53 = pmf_table(3, 53)
        assert t53.cumulative[53] > 1 - Fraction(1, 10**6)
        assert t53.tail > 0

    def test_unsupported_alphabet(self):
        with pytest.raises(ValueError):
            pmf_table(4, 20)

    def test_truncation_before_support_rejected(self):
        for d, n_max, start in ((3, 5, 7), (3, 6, 7), (2, 2, 3)):
            with pytest.raises(ValueError, match=f"least superpattern length {start}$"):
                pmf_table(d, n_max)


class TestCouponExpectations:
    def test_ternary(self):
        assert coupon_expectations(3, 3) == (Fraction(11, 2), Fraction(33, 2))

    def test_binary(self):
        assert coupon_expectations(2, 2) == (Fraction(3), Fraction(6))

    def test_trivial(self):
        assert coupon_expectations(1, 1) == (1, 1)

    def test_superpattern_wait_is_shorter_than_all_words_wait(self):
        # containing all patterns needs less than containing all words
        _, all_words_wait = coupon_expectations(3, 3)
        mean, _ = moments_from_gf(ternary_waiting_time_gf())
        assert mean < all_words_wait

    def test_invalid(self):
        with pytest.raises(ValueError):
            coupon_expectations(0, 1)
