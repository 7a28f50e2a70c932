from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns import (
    QUATERNARY_EXAMPLE,
    BudgetExceededError,
    ClassFlags,
    CountReport,
    LetterPermutation,
    SuperpatternNotFoundError,
    Word,
    apply_letter_permutation,
    classify,
    contains_pattern_bruteforce,
    enumerate_preferential_arrangements,
    get_automaton,
    count_beta_bruteforce,
    count_formulas,
    count_minimal_upto_iso,
    count_strict_minimal_upto_iso,
    count_strict_superpatterns,
    ends_with_minimum_superpattern,
    enumerate_minimal_upto_iso,
    enumerate_strict_minimal_upto_iso,
    has_flanking_pairs,
    is_superpattern,
    isomorphism_orbit,
    iter_strict_superpatterns,
    iter_superpatterns,
    letter_multiplicities,
    min_superpattern_length,
    minimum_superpatterns_ternary,
    missing_patterns,
    strict_counts_by_length,
    verify_quaternary_counterexample,
)

THE_SEVEN = {
    "1213121", "1213212", "1231213", "1231231", "1231321", "1232123", "1232132",
}


class TestSuperpatternPredicate:
    def test_known_superpatterns(self):
        assert is_superpattern(Word.parse("1213121"), 3)
        assert is_superpattern(Word.parse("121"), 2)
        assert is_superpattern(Word.parse("111221"), 2)

    def test_known_non_superpattern(self):
        assert not is_superpattern(Word.parse("123123"), 3)

    def test_missing_patterns_empty_iff_superpattern(self):
        assert missing_patterns(Word.parse("1213121"), 3) == []
        assert len(missing_patterns(Word.parse("", alphabet_size=3), 3)) == 13
        missing = {str(p) for p in missing_patterns(Word.parse("121212"), 3)}
        assert "123" in missing
        assert missing == {"123", "132", "213", "231", "312", "321"}

    def test_k_cap(self):
        with pytest.raises(ValueError):
            is_superpattern(Word.parse("121"), 6)


class TestClassify:
    def test_minimum_binary(self):
        flags = classify(Word.parse("121"), 2)
        assert flags == ClassFlags(True, True, True, True)

    def test_strict_non_minimum_binary(self):
        flags = classify(Word.parse("111221"), 2)
        assert flags.is_superpattern and flags.is_strict
        assert not flags.is_minimal and not flags.is_minimum

    def test_extended_word_loses_strictness(self):
        flags = classify(Word.parse("12131212"), 3)
        assert flags.is_superpattern and not flags.is_strict

    def test_minimum_ternary(self):
        assert classify(Word.parse("1213121"), 3) == ClassFlags(True, True, True, True)

    def test_longer_minimal_is_not_minimum(self):
        flags = classify(Word.parse("12131231"), 3)
        if flags.is_superpattern and flags.is_minimal:
            assert not flags.is_minimum

    def test_flag_implications_on_a_sweep(self):
        for w in iter_strict_superpatterns(3, 3, 8):
            flags = classify(w, 3)
            assert flags.is_superpattern and flags.is_strict
            if flags.is_minimum:
                assert flags.is_minimal and flags.is_strict

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValueError):
            ClassFlags(False, True, False, False)
        with pytest.raises(ValueError):
            ClassFlags(True, True, False, True)

    def test_classification_invariant_under_relabeling(self):
        from itertools import permutations

        for text in THE_SEVEN:
            w = Word.parse(text, alphabet_size=3)
            for images in permutations((1, 2, 3)):
                image = apply_letter_permutation(w, LetterPermutation(images))
                assert classify(image, 3) == classify(w, 3)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=10))
    def test_agrees_with_the_automaton(self, letters):
        w = Word(tuple(letters), 3)
        auto = get_automaton(3, 3)
        accepted = auto.accepting[auto.scan(w.letters)]
        flags = classify(w, 3)
        missing = missing_patterns(w, 3)
        assert flags.is_superpattern == accepted == is_superpattern(w, 3)
        assert missing == [
            p for p in enumerate_preferential_arrangements(3) if not contains_pattern_bruteforce(w, p)
        ]
        assert flags.is_strict == (accepted and not auto.accepting[auto.scan(w.letters[:-1])])


class TestMinimumLength:
    def test_binary(self):
        assert min_superpattern_length(2, 2) == 3

    def test_ternary(self):
        assert min_superpattern_length(3, 3) == 7

    def test_not_found_below_seven(self):
        with pytest.raises(SuperpatternNotFoundError):
            min_superpattern_length(3, 3, n_max=6)

    def test_impossible_when_alphabet_smaller_than_k(self):
        with pytest.raises(SuperpatternNotFoundError):
            min_superpattern_length(3, 2, n_max=30)

    def test_single_letter(self):
        assert min_superpattern_length(1, 1) == 1
        assert min_superpattern_length(1, 3) == 1


class TestAlternatingEnumeration:
    def test_the_seven(self):
        words = enumerate_strict_minimal_upto_iso(7)
        assert {str(w) for w in words} == THE_SEVEN
        assert [str(w) for w in words] == sorted(THE_SEVEN)

    def test_none_at_six(self):
        assert enumerate_strict_minimal_upto_iso(6) == []
        assert enumerate_minimal_upto_iso(6) == []

    def test_fourteen_at_eight(self):
        assert len(enumerate_strict_minimal_upto_iso(8)) == 14

    def test_minimal_counts(self):
        assert len(enumerate_minimal_upto_iso(7)) == 7
        assert len(enumerate_minimal_upto_iso(8)) == 28

    def test_enumerated_words_classify_correctly(self):
        for w in enumerate_strict_minimal_upto_iso(8):
            flags = classify(w, 3)
            assert flags.is_strict and flags.is_minimal
        for w in enumerate_minimal_upto_iso(8):
            assert classify(w, 3).is_minimal

    def test_counts_match_formulas_through_twenty(self):
        for n in range(7, 21):
            report = count_formulas(n)
            assert count_minimal_upto_iso(n) == report.gamma_total, n
            assert count_strict_minimal_upto_iso(n) == report.s_mu, n

    def test_count_agrees_with_list(self):
        for n in range(3, 13):
            assert count_minimal_upto_iso(n) == len(enumerate_minimal_upto_iso(n))
            assert count_strict_minimal_upto_iso(n) == len(enumerate_strict_minimal_upto_iso(n))


class TestStrictEnumeration:
    def test_binary_length_three(self):
        assert count_strict_superpatterns(2, 2, 3) == 2
        assert {str(w) for w in iter_strict_superpatterns(2, 2, 3)} == {"121", "212"}

    def test_ternary_counts(self):
        assert count_strict_superpatterns(3, 3, 7) == 42
        assert count_strict_superpatterns(3, 3, 6) == 0
        assert count_strict_superpatterns(3, 3, 8) == 336

    def test_scan_matches_formulas(self):
        counts = strict_counts_by_length(3, 3, 11)
        for n in range(7, 12):
            assert counts[n] == count_formulas(n).s_total, n

    def test_listed_words_are_strict(self):
        words = list(iter_strict_superpatterns(3, 3, 8))
        assert len(words) == 336
        for w in words[::37]:
            flags = classify(w, 3)
            assert flags.is_strict

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            count_strict_superpatterns(3, 3, 15)
        with pytest.raises(BudgetExceededError):
            count_strict_superpatterns(3, 3, 8, budget=3**7)

    def test_full_and_canonical_superpattern_listings(self):
        canonical = list(iter_superpatterns(3, 3, 7, canonical=True))
        assert {str(w) for w in canonical} == THE_SEVEN
        full = list(iter_superpatterns(3, 3, 7))
        assert len(full) == 42
        assert set(isomorphism_orbit(canonical)) == set(full)


class TestCountFormulas:
    def test_values_at_seven(self):
        r = count_formulas(7)
        assert (r.gamma_total, r.s_mu, r.s_a, r.s_total) == (7, 7, 7, 42)
        assert (r.beta_a, r.beta_b, r.beta_total) == (14, 11, 25)

    def test_values_at_eight_and_nine(self):
        assert count_formulas(8).s_mu == 14
        assert count_formulas(8).s_total == 336
        assert count_formulas(9).beta_total == 49
        assert count_formulas(9).gamma_total == 2**7 - 49

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            count_formulas(6)

    def test_strict_equals_total_minus_extensions(self):
        # strict minimal at n = all minimal at n minus two extensions of each
        # minimal at n-1
        for n in range(8, 16):
            assert count_formulas(n).s_mu == (
                count_formulas(n).gamma_total - 2 * count_formulas(n - 1).gamma_total
            )

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            CountReport(7, 7, 7, 7, 42, 14, 12, 25)
        with pytest.raises(ValueError):
            CountReport(7, 7, 7, 7, 41, 14, 11, 25)

    def test_csv_row(self):
        assert count_formulas(7).csv_row() == "7,7,7,7,42,14,11,25"


class TestBetaBruteforce:
    @pytest.mark.parametrize("n,expected", [(7, (14, 11)), (8, (22, 14)), (10, (44, 20))])
    def test_matches_closed_form(self, n, expected):
        assert count_beta_bruteforce(n) == expected
        assert expected == (n * n - 7 * n + 14, 3 * n - 10)

    def test_splits_total_failures(self):
        for n in range(7, 13):
            a, b = count_beta_bruteforce(n)
            assert a + b == (n - 2) ** 2


class TestLetterMultiplicities:
    def test_examples(self):
        assert letter_multiplicities(Word.parse("1213121")) == (4, 2, 1)
        assert letter_multiplicities(Word.parse("1213212")) == (3, 3, 1)
        assert letter_multiplicities(Word.parse("111")) == (3, 0, 0)

    def test_rejects_wide_alphabets(self):
        with pytest.raises(ValueError):
            letter_multiplicities(Word.parse("1214"))


class TestFlankingPairs:
    def test_holds_on_the_seven(self):
        for w in minimum_superpatterns_ternary():
            assert has_flanking_pairs(w)

    def test_fails_on_non_superpattern(self):
        assert not has_flanking_pairs(Word.parse("123123"))
        assert not has_flanking_pairs(Word.parse("121212", alphabet_size=3))

    def test_holds_on_all_strict_superpatterns_at_eight(self):
        assert all(has_flanking_pairs(w) for w in iter_strict_superpatterns(3, 3, 8))

    def test_necessity_exhaustively_at_length_eight(self):
        # Superpattern implies flanking.  (At this length the twelve flanking
        # conditions happen to characterise superpatterns exactly; only the
        # necessary direction is relied on anywhere.)
        from conftest import all_words

        for w in all_words(3, 8):
            if is_superpattern(w, 3):
                assert has_flanking_pairs(w)


class TestTerminalMinimumEmbedding:
    def test_length_seven_words_embed_themselves(self):
        for w in minimum_superpatterns_ternary():
            assert ends_with_minimum_superpattern(w)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_holds_for_all_strict_minimal(self, n):
        for w in enumerate_strict_minimal_upto_iso(n):
            assert ends_with_minimum_superpattern(w)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            ends_with_minimum_superpattern(Word.parse("123123"))
        with pytest.raises(ValueError):
            # superpattern but not strict
            ends_with_minimum_superpattern(Word.parse("12131212"))


class TestQuaternaryCounterexample:
    def test_word_constant(self):
        assert str(QUATERNARY_EXAMPLE) == "121312141213121"
        assert QUATERNARY_EXAMPLE.alphabet_size == 4

    def test_verifies(self):
        assert verify_quaternary_counterexample()

    def test_word_is_strict_for_k4(self):
        assert is_superpattern(QUATERNARY_EXAMPLE, 4)
        assert not is_superpattern(QUATERNARY_EXAMPLE.prefix(14), 4)
