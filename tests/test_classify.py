from __future__ import annotations

import os
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import import_module
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superpatterns import (
    QUATERNARY_EXAMPLE,
    BudgetExceededError,
    ClassFlags,
    CountReport,
    Pattern,
    Word,
    classify,
    contains_pattern,
    dense_rank,
    enumerate_preferential_arrangements,
    get_automaton,
    count_beta_bruteforce,
    count_formulas,
    count_minimal_upto_iso,
    count_strict_minimal_upto_iso,
    count_strict_superpatterns,
    ends_with_minimum_superpattern,
    has_flanking_pairs,
    is_superpattern,
    iter_strict_minimal_upto_iso,
    iter_strict_superpatterns,
    iter_superpatterns,
    min_superpattern_length,
    minimum_superpatterns_ternary,
    missing_patterns,
    relabel_canonical,
    strict_counts_by_length,
    verify_quaternary_counterexample,
)
from superpatterns import _dfa, automaton
from superpatterns._dfa import close_and_minimise
from superpatterns.classify import (
    _ANY,
    _CANONICAL,
    _NO_REPEAT,
    _WordSpace,
    _ends_with_minimum,
    _least_length_bounds,
    _minimal_listing,
    _relabelling_keeps_status,
)
from superpatterns.patterns import MAX_INSTANCES, MAX_PATTERN_LENGTH

from conftest import (
    alive,
    all_words,
    contains_pattern_bruteforce,
    dfs_strict_counts,
    ends_with_minimum_by_subsets,
    find_embedding,
    flanking_pairs_by_scanning,
    isomorphism_orbit,
    min_length_bfs,
    quaternary_claim_by_all_subsequences,
    strict_count_upto_iso_by_terms,
)

# The classify module itself; the package's `classify` name is the function.
classify_module = import_module("superpatterns.classify")
patterns_module = import_module("superpatterns.patterns")

THE_SEVEN = {
    "1213121", "1213212", "1231213", "1231231", "1231321", "1232123", "1232132",
}


@st.composite
def words_and_k(draw):
    """A pattern length k in 2..4 and a word of up to 14 letters over 1..d, d <= 5."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 5))
    return Word(tuple(draw(st.lists(st.integers(1, d), max_size=14))), d), k


# Superpatterns to plant in random words, so that the strictness property meets
# superpatterns at every k: for k = 3 the seven minimum ones, for k = 4 a
# 12-letter minimal one.
PLANTED = {2: ("121", "212"), 3: tuple(sorted(THE_SEVEN)), 4: ("123413214231",)}


@st.composite
def planted_superpatterns(draw):
    """A k in 2..4 and a word of up to 14 letters over 1..d, k <= d <= 5, that
    holds a planted k-superpattern between random letters.  For k = 4 at least
    one letter is added, so that the word is longer than 12 and classify never
    runs the (4, d) minimum-length search."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(k, 5))
    core = tuple(int(c) for c in draw(st.sampled_from(PLANTED[k])))
    side = st.lists(st.integers(1, d), max_size=(14 - len(core)) // 2)
    before = draw(side)
    after = draw(side.filter(lambda a: a or before or k < 4))
    return Word((*before, *core, *after), d), k


@st.composite
def words_with_gaps(draw):
    """A k in 1..5 and a word of up to 14 letters over 1..d, d <= 7, that
    leaves some letter of its alphabet unused.  For k = 2 or 3 the word may
    hold a planted k-superpattern, its ranks mapped in order onto the
    letters the word uses, which keeps it a superpattern."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(2, 7))
    used = sorted(draw(st.sets(st.integers(1, d), min_size=1, max_size=d - 1)))
    core: tuple[int, ...] = ()
    if k in (2, 3) and len(used) >= k and draw(st.booleans()):
        core = tuple(used[int(c) - 1] for c in draw(st.sampled_from(PLANTED[k])))
    letters = draw(st.lists(st.sampled_from(used), max_size=14 - len(core)))
    # Often at the end, where the planted word's last letter is often
    # needed, so that strict words are drawn too.
    cut = draw(st.one_of(st.just(len(letters)), st.integers(0, len(letters))))
    return Word((*letters[:cut], *core, *letters[cut:]), d), k


# The least superpattern lengths for k <= 3 over at least k letters; a word
# drawn above holds no superpattern short enough to be minimum for k >= 4.
LEAST_LENGTH = {1: 1, 2: 3, 3: 7}


def classify_by_backtracking(word: Word, k: int) -> ClassFlags:
    """Oracle for classify from the backtracking search: the word contains
    every pattern, its prefix does not, and its length is the least."""
    patterns = enumerate_preferential_arrangements(k)
    if any(find_embedding(word, p) is None for p in patterns):
        return ClassFlags(False, False, False, False)
    letters = word.letters
    minimal = all(a != b for a, b in zip(letters, letters[1:]))
    prefix = word.prefix(len(word) - 1)
    strict = any(find_embedding(prefix, p) is None for p in patterns)
    return ClassFlags(True, minimal, strict, minimal and len(word) == LEAST_LENGTH.get(k))


@pytest.fixture(scope="module")
def automaton_3_3() -> automaton.ContainmentAutomaton:
    """One (3, 3) automaton for every hypothesis example of the tests that
    take it, rather than a fresh one built for each example."""
    return get_automaton(3, 3)


@st.composite
def strict_quaternary_superpatterns(draw):
    """A strict 4-superpattern of 12 to 16 letters over 1..4: four shuffled
    permutations of 1234, which together hold every length-4 pattern, with
    up to three letters changed and cut after the first prefix that is a
    superpattern."""
    letters = [a for _ in range(4) for a in draw(st.permutations((1, 2, 3, 4)))]
    for i in draw(st.lists(st.integers(0, 15), max_size=3)):
        letters[i] = draw(st.integers(1, 4))
    n = next((n for n in range(12, 17) if is_superpattern(Word(letters[:n], 4), 4)), None)
    assume(n is not None)
    return Word(letters[:n], 4)


def _in_order(patterns):
    return sorted(patterns, key=lambda p: p.letters)


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
        # classify and missing_patterns refuse a bad k when they list the
        # patterns, before the cap on instances (9**6 of them here), and keep
        # no matcher for it, so a second call is refused the same way.
        for query in (classify, missing_patterns):
            for word in (Word.parse("121"), Word.parse("123456789")):
                for k, message in [(0, "pattern length must be at least 1"), (6, "over the cap of 5")]:
                    for _ in range(2):
                        with pytest.raises(ValueError, match=message):
                            query(word, k)


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
                image = Word(tuple(images[v - 1] for v in w.letters), 3)
                assert classify(image, 3) == classify(w, 3)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=10))
    def test_agrees_with_the_automaton(self, automaton_3_3, letters):
        w = Word(tuple(letters), 3)
        auto = automaton_3_3
        accepted = auto.accepting[auto.scan(w.letters)]
        flags = classify(w, 3)
        missing = missing_patterns(w, 3)
        assert flags.is_superpattern == accepted == is_superpattern(w, 3)
        assert missing == [
            p for p in enumerate_preferential_arrangements(3) if not contains_pattern_bruteforce(w, p)
        ]
        assert flags.is_strict == (accepted and not auto.accepting[auto.scan(w.letters[:-1])])

    # derandomize: classify on a minimal 4-superpattern of at most 12 letters
    # over four, or 11 over more, runs the (4, d) minimum-length search,
    # which answers in seconds for d = 4 and overruns its state budget for
    # d >= 5; the fixed example set draws no such word.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(words_and_k(), planted_superpatterns()))
    def test_strict_means_the_prefix_falls_short(self, word_k):
        w, k = word_k
        expected = is_superpattern(w, k) and not is_superpattern(w.prefix(len(w) - 1), k)
        assert classify(w, k).is_strict == expected

    def test_a_query_reads_the_word_once_through_one_matcher(self, monkeypatch):
        # All 75 patterns of a 12-letter word are read through the one (5, 4)
        # matcher: classify reads all but the last letter, a superpattern
        # already, so it needs no more, and missing_patterns reads the word
        # whole.  The word is not minimal, so classify runs no minimum-length
        # search; a strict word has its last letter read from the prefix's
        # state.
        monkeypatch.setattr(patterns_module, "_matchers", {})
        run, reads = patterns_module._Matcher.run, []
        monkeypatch.setattr(
            patterns_module._Matcher,
            "run",
            lambda matcher, letters, state=None: reads.append((len(matcher.places), len(letters)))
            or run(matcher, letters, state),
        )
        w = Word.parse("421342541244")
        assert classify(w, 4) == ClassFlags(True, False, False, False)
        assert missing_patterns(w, 4) == []
        assert reads == [(75, 11), (75, 12)]
        assert classify(Word.parse("123413214231", alphabet_size=5), 4).is_strict
        assert reads[2:] == [(75, 11), (75, 1)]
        assert list(patterns_module._matchers) == [(5, 4), (4, 4)]

    def test_witnesses_on_the_last_letter_need_not_make_it_strict(self):
        w = Word.parse("12321231")
        on_last = [find_embedding(w, Pattern.parse(p)) for p in ("111", "211")]
        assert on_last == [(0, 4, 7), (1, 4, 7)]
        assert is_superpattern(w.prefix(7), 3)
        flags = classify(w, 3)
        assert flags.is_superpattern and flags.is_minimal and not flags.is_strict


class TestAgainstTheBacktrackingOracle:
    @settings(max_examples=300, deadline=None)
    @given(words_with_gaps())
    def test_every_query_agrees(self, word_k):
        w, k = word_k
        assert w.alphabet_size > len(set(w.letters))
        patterns = enumerate_preferential_arrangements(k)
        missing = [p for p in patterns if find_embedding(w, p) is None]
        assert [p for p in patterns if not contains_pattern(w, p)] == missing
        assert missing_patterns(w, k) == missing
        assert is_superpattern(w, k) == (not missing)
        assert classify(w, k) == classify_by_backtracking(w, k)


class TestSymmetries:
    @settings(max_examples=200, deadline=None)
    @given(words_and_k())
    def test_missing_patterns_commute_with_complement(self, word_k):
        w, k = word_k
        d = w.alphabet_size
        flipped = Word(tuple(d + 1 - v for v in w.letters), d)
        expected = [Pattern(tuple(p.rank_count() + 1 - v for v in p.letters)) for p in missing_patterns(w, k)]
        assert missing_patterns(flipped, k) == _in_order(expected)

    @settings(max_examples=200, deadline=None)
    @given(words_and_k())
    def test_missing_patterns_commute_with_reversal(self, word_k):
        w, k = word_k
        reversed_word = Word(w.letters[::-1], w.alphabet_size)
        expected = [Pattern(p.letters[::-1]) for p in missing_patterns(w, k)]
        assert missing_patterns(reversed_word, k) == _in_order(expected)

    @settings(max_examples=200, deadline=None)
    @given(words_and_k(), st.data())
    def test_status_survives_widening_the_alphabet(self, word_k, data):
        w, k = word_k
        d = w.alphabet_size
        wide = data.draw(st.integers(d, 9))
        images = sorted(data.draw(st.sets(st.integers(1, wide), min_size=d, max_size=d)))
        widened = Word(tuple(images[v - 1] for v in w.letters), wide)
        assert is_superpattern(widened, k) == is_superpattern(w, k)


class TestMinimumLength:
    def test_binary(self):
        assert min_superpattern_length(2, 2) == 3

    def test_ternary(self):
        assert min_superpattern_length(3, 3) == 7

    def test_impossible_when_alphabet_smaller_than_k(self):
        for k, d in [(2, 1), (3, 2), (5, 4)]:
            with pytest.raises(ValueError, match=f"over a {d}-letter alphabet can contain all length-{k}"):
                min_superpattern_length(k, d)

    def test_impossible_without_a_ceiling_needs_no_search(self, monkeypatch):
        def no_search(d, k):
            raise AssertionError("no automaton should be built")

        monkeypatch.setattr(classify_module, "get_automaton", no_search)
        monkeypatch.setattr(classify_module, "close_and_minimise", no_search)
        with pytest.raises(ValueError):
            min_superpattern_length(3, 2)

    def test_single_letter(self):
        assert min_superpattern_length(1, 1) == 1
        assert min_superpattern_length(1, 3) == 1

    @pytest.mark.parametrize(
        "k,d", [(k, d) for k in (1, 2, 3) for d in range(1, 6)] + [(4, d) for d in range(1, 4)]
    )
    def test_agrees_with_the_breadth_first_search(self, k, d):
        assert _outcome(lambda: min_superpattern_length(k, d)) == _outcome(lambda: min_length_bfs(k, d))

    def test_every_pattern_length_has_a_superpattern_at_the_bound(self):
        # Each upper bound of the least-length table must be the length of
        # some k-superpattern over k letters.
        witnesses = ["1", "121", "1213121", "123413214231", "3154231453241352413"]
        assert len(witnesses) == MAX_PATTERN_LENGTH
        for k, text in enumerate(witnesses, 1):
            w = Word.parse(text)
            assert (w.alphabet_size, len(w)) == (k, _least_length_bounds(k, k)[1])
            assert is_superpattern(w, k), text

    def test_four_letter_patterns_need_a_letter_less_over_five_letters(self):
        # The k = 4 bound falls from 12 to 11 once d >= 5, by this witness,
        # checked three ways: on the automaton, by the dense ranks of all 330
        # of its 4-letter subsequences, and by the backtracking search.
        w = Word.parse("42134254124")
        assert [_least_length_bounds(4, d)[1] for d in (4, 5, 9)] == [12, len(w), len(w)]
        assert w.alphabet_size == 5 and is_superpattern(w, 4)
        patterns = enumerate_preferential_arrangements(4)
        subsequences = list(combinations(w.letters, 4))
        assert len(subsequences) == 330
        assert {dense_rank(Word(s, 5)) for s in subsequences} == set(patterns)
        assert all(find_embedding(w, p) is not None for p in patterns)

    def test_a_twelve_letter_word_over_five_letters_is_not_minimum(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("12 letters are past the bound, so nothing is searched")

        monkeypatch.setattr(classify_module, "min_superpattern_length", no_search)
        flags = classify(Word.parse("123413214231", alphabet_size=5), 4)
        assert flags == ClassFlags(True, True, True, False)

    def test_quaternary(self):
        assert min_superpattern_length(4, 4) == 12
        assert classify(Word.parse("123413214231"), 4).is_minimum

    def test_answered_without_a_search(self, monkeypatch):
        # Proven entries are read from the table and the others refused at
        # once; classify and listings shorter than the least length make no
        # automaton for the DP and run none.
        def no_search(*args):
            raise AssertionError("no search should run")

        monkeypatch.setattr(classify_module, "_automaton", no_search)
        monkeypatch.setattr(_WordSpace, "levels", no_search)
        lengths = [min_superpattern_length(k, d) for k, d in [(1, 3), (2, 5), (3, 3), (3, 20), (4, 4)]]
        assert lengths == [1, 3, 7, 7, 12]
        for k, d, lower, upper in [(4, 5, 7, 11), (4, 9, 7, 11), (5, 5, 9, 19)]:
            with pytest.raises(BudgetExceededError) as exc:
                min_superpattern_length(k, d)
            assert str(exc.value) == (
                f"the least superpattern length for k={k} over {d} letters is not proven:"
                f" it lies between {lower} and {upper}"
            )
        # The pattern length is refused first, then the alphabet, then k > d.
        for (k, d), message in [
            ((6, 0), "pattern length k=6 is over the cap"),
            ((3, 0), "alphabet size must be at least 1"),
            ((3, 2), "over a 2-letter alphabet"),
        ]:
            with pytest.raises(ValueError, match=message):
                min_superpattern_length(k, d)
        assert classify(Word.parse("123413214231"), 4).is_minimum
        for n in range(7, 12):
            assert list(iter_superpatterns(4, 4, n)) == [], n

    def test_no_four_letter_word_below_twelve_letters_is_a_superpattern(self, monkeypatch, automata):
        # The proof of L(4, 4) = 12 walks canonical words to length 11 over
        # the minimal DFA, 2,014 states closed from the 24 permutations: the
        # one automaton made is the closure's, and no lazy one is held.
        monkeypatch.setattr(_dfa, "_built", {})
        assert _hits_below_least_length(4, 4) == [0] * 12
        assert list(_dfa._built) == [(4, 4)] and len(_dfa._built[4, 4][0]) == 2014
        assert len(automata) == 1 and alive(automata) == []


def _hits_below_least_length(k: int, d: int) -> list[int]:
    """The proof of a proven entry L of the least-length table, with the
    witness of L letters: the strict counting DP's hits at each length below
    L, which must all be 0.  A superpattern of at most L - 1 letters holds k
    equal letters, so it uses at most L - k distinct ones, and dense ranking
    keeps it a superpattern.  So the DP runs over min(d, L - k) letters, and
    over k where that leaves fewer than k, on canonical words where
    _relabelling_keeps_status."""
    lower, upper = _least_length_bounds(k, d)
    assert lower == upper
    width = min(d, max(k, upper - k))
    rule = _CANONICAL if _relabelling_keeps_status(width, k) else _ANY
    return [hit for _level, hit in _WordSpace(width, k, rule).levels(upper - 1, strict=True)]


class TestAlternatingEnumeration:
    def test_the_seven(self):
        words = list(iter_strict_minimal_upto_iso(7))
        assert {str(w) for w in words} == THE_SEVEN
        assert [str(w) for w in words] == sorted(THE_SEVEN)

    def test_none_at_six(self):
        assert list(iter_strict_minimal_upto_iso(6)) == []
        assert list(_minimal_listing(6, False, None)) == []

    def test_fourteen_at_eight(self):
        assert len(list(iter_strict_minimal_upto_iso(8))) == 14

    def test_minimal_counts(self):
        assert len(list(_minimal_listing(7, False, None))) == 7
        assert len(list(_minimal_listing(8, False, None))) == 28

    def test_enumerated_words_classify_correctly(self):
        for w in iter_strict_minimal_upto_iso(8):
            flags = classify(w, 3)
            assert flags.is_strict and flags.is_minimal
        for w in _minimal_listing(8, False, None):
            assert classify(w, 3).is_minimal

    def test_counts_match_formulas_through_twenty(self):
        for n in range(7, 21):
            report = count_formulas(n)
            assert count_minimal_upto_iso(n) == report.gamma_total, n
            assert count_strict_minimal_upto_iso(n) == report.s_mu, n

    def test_count_agrees_with_list(self):
        for n in range(3, 13):
            assert count_minimal_upto_iso(n) == len(list(_minimal_listing(n, False, None)))
            assert count_strict_minimal_upto_iso(n) == len(list(iter_strict_minimal_upto_iso(n)))

    @pytest.mark.parametrize("strict", [False, True], ids=["minimal", "strict-minimal"])
    def test_full_listing_is_the_orbit_of_the_listing_up_to_isomorphism(self, strict):
        for n in range(3, 13):
            upto_iso = _minimal_listing(n, strict, None)
            assert list(_minimal_listing(n, strict, None, prefix=())) == isomorphism_orbit(upto_iso), n


class TestStrictEnumeration:
    def test_binary_length_three(self):
        assert count_strict_superpatterns(2, 2, 3) == 2
        assert {str(w) for w in iter_strict_superpatterns(2, 2, 3)} == {"121", "212"}

    def test_strict_listings_refuse_at_the_call(self):
        # Like iter_superpatterns, both return the walker itself, so a bad
        # input is refused before any word is asked for.
        with pytest.raises(ValueError, match="k=6 is over the cap of 5"):
            iter_strict_superpatterns(6, 6, 6)
        with pytest.raises(ValueError, match="needs n >= 3"):
            iter_strict_minimal_upto_iso(2)

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

    def test_budget_enforced(self, monkeypatch, automata):
        # The (3, 3) count steps the minimal DFA, whose largest join holds
        # 47 states, over the k^d = 27 the budget must pass to be tried; the
        # (6, 3) count steps the lazy automaton, which reaches 9,124 states
        # by length 5.
        monkeypatch.setattr(_dfa, "_built", {})
        monkeypatch.setattr(_dfa, "STATE_BUDGET", 40)
        with pytest.raises(BudgetExceededError, match="the automaton for k=3, d=3 exceeded 40 states"):
            count_strict_superpatterns(3, 3, 15)
        assert (3, 3) not in _dfa._built
        monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 600)
        with pytest.raises(BudgetExceededError, match="the automaton for k=3, d=6 exceeded 600 states"):
            count_strict_superpatterns(6, 3, 15)
        # The DFA's closure and the count each made one, and neither is held.
        assert len(automata) == 2 and alive(automata) == []

    def test_component_overflow_in_a_listing_drops_the_automaton(self, monkeypatch, automata):
        monkeypatch.setattr(automaton, "_MAX_COMPONENTS", 50)
        with pytest.raises(BudgetExceededError, match="exceeded 50 progress vectors"):
            list(iter_strict_superpatterns(6, 3, 7))
        assert len(automata) == 1 and alive(automata) == []

    def test_full_and_canonical_superpattern_listings(self):
        canonical = list(iter_superpatterns(3, 3, 7, canonical=True))
        assert {str(w) for w in canonical} == THE_SEVEN
        full = list(iter_superpatterns(3, 3, 7))
        assert len(full) == 42
        assert set(isomorphism_orbit(canonical)) == set(full)

    def test_the_216_minimum_quaternary_words(self):
        # Each strict (4, 4) word of the least length 12 holds every pattern
        # by the matcher route and its 11-letter prefix does not; the words
        # fall into the 9 classes of the canonical listing.
        strict = list(iter_strict_superpatterns(4, 4, 12))
        assert len(strict) == 216
        assert all(is_superpattern(w, 4) and not is_superpattern(w.prefix(11), 4) for w in strict)
        canonical = list(iter_superpatterns(4, 4, 12, canonical=True))
        assert len(canonical) == 9
        assert {relabel_canonical(w) for w in strict} == set(canonical)


def _every_relabelling_keeps_the_language(d: int, k: int) -> bool:
    """Whether each permutation sigma of the letters maps the superpatterns
    onto themselves: a walk over the pairs (state of w, state of sigma(w))
    of the minimal DFA, from the pair of start states, finds no pair where
    one accepts and the other does not."""
    rows, accept = close_and_minimise(d, k)
    for sigma in permutations(range(d)):
        seen = {(0, 0)}
        todo = [(0, 0)]
        while todo:
            s, t = todo.pop()
            if (s == accept) != (t == accept):
                return False
            for a in range(d):
                pair = (rows[s][a], rows[t][sigma[a]])
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return True


class TestCanonicalListing:
    """iter_superpatterns(canonical=True) lists the superpatterns in
    first-occurrence canonical form, one per letter-isomorphism class, and is
    refused where permuting letters changes superpattern status."""

    @staticmethod
    def classes_and_listing(d, k, n):
        classes = {relabel_canonical(w) for w in iter_superpatterns(d, k, n)}
        return classes, set(iter_superpatterns(d, k, n, canonical=True))

    @pytest.mark.parametrize("d,k", [(2, 2), (3, 3)])
    def test_one_word_per_class_for_the_paper_alphabets(self, d, k):
        for n in range(1, 9):
            classes, listed = self.classes_and_listing(d, k, n)
            assert listed == classes, n

    def test_refused_for_k_two_over_three_letters(self):
        # The canonical word of 1132's class is no superpattern, so the
        # canonical listing would miss the class.
        assert is_superpattern(Word.parse("1132"), 2)
        assert relabel_canonical(Word.parse("1132")) == Word.parse("1123", 3)
        assert not is_superpattern(Word.parse("1123", 3), 2)
        with pytest.raises(ValueError, match="at d=3, k=2 "):
            iter_superpatterns(3, 2, 4, canonical=True)

    def test_refused_for_four_letters_at_seven(self):
        # 76 classes hold a superpattern; only 15 of their canonical words do.
        assert len({relabel_canonical(w) for w in iter_superpatterns(4, 3, 7)}) == 76
        with pytest.raises(ValueError, match="at d=4, k=3 "):
            iter_superpatterns(4, 3, 7, canonical=True)

    @pytest.mark.parametrize(
        "d,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (6, 2)]
    )
    def test_answered_exactly_where_every_relabelling_keeps_the_language(self, d, k):
        try:
            iter_superpatterns(d, k, 3, canonical=True)
        except ValueError:
            answered = False
        else:
            answered = True
        assert answered == _every_relabelling_keeps_the_language(d, k)

    @pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 3), (3, 4), (5, 6)])
    def test_answered_with_no_words_where_k_passes_d(self, d, k):
        assert list(iter_superpatterns(d, k, 8, canonical=True)) == []


def _alternating_words(n: int):
    """The 2^(n-2) words of length n over {1,2,3} that start 1,2 and never
    repeat a letter, in lexicographic order."""
    for choices in product((0, 1), repeat=n - 2):
        letters = [1, 2]
        for c in choices:
            letters.append([v for v in (1, 2, 3) if v != letters[-1]][c])
        yield Word(tuple(letters), 3)


class TestTransferMatrixCounts:
    @pytest.mark.parametrize("d,k,n_max", [(2, 2, 16), (3, 2, 10), (3, 3, 11), (4, 3, 8)])
    def test_strict_counts_equal_the_depth_first_search(self, d, k, n_max):
        assert strict_counts_by_length(d, k, n_max) == dfs_strict_counts(d, k, n_max)

    def test_alternating_counts_equal_a_filter_over_the_words(self):
        for n in range(3, 12):
            sp, strict, fail_1, fail_3 = 0, 0, 0, 0
            for w in _alternating_words(n):
                if is_superpattern(w, 3):
                    sp += 1
                    strict += not is_superpattern(w.prefix(n - 1), 3)
                elif w.letters[2] == 1:
                    fail_1 += 1
                else:
                    fail_3 += 1
            assert count_minimal_upto_iso(n) == sp, n
            assert count_strict_minimal_upto_iso(n) == strict, n
            assert count_beta_bruteforce(n) == (fail_1, fail_3), n

    def test_counts_reach_past_the_word_space_budget(self):
        # Counts are bounded by automaton states, not by the 3^40 and 2^38
        # words they range over.
        counts = strict_counts_by_length(3, 3, 40)
        assert all(counts[n] == count_formulas(n).s_total for n in range(7, 41))
        f = count_formulas(40)
        assert count_minimal_upto_iso(40) == f.gamma_total
        assert count_strict_minimal_upto_iso(40) == f.s_mu
        assert count_beta_bruteforce(40) == (f.beta_a, f.beta_b)

    def test_quaternary_counts_step_the_minimal_dfa(self):
        # Lazily, these counts passed the 500,000-state budget by n = 12.
        counts = strict_counts_by_length(4, 4, 14)
        assert [counts[n] for n in range(11, 15)] == [0, 216, 16_248, 330_816]

    def test_counts_are_bounded_by_automaton_states(self, monkeypatch, automata):
        # A word of length 8 is a superpattern when its waiting time t is at
        # most 8, and 4^(8-t) words share each strict prefix of length t.
        expected = sum(c * 4 ** (8 - t) for t, c in strict_counts_by_length(4, 3, 8).items())
        assert sum(1 for _ in iter_superpatterns(4, 3, 8)) == expected
        # (4, 3) steps the minimal DFA, whose last join holds 2,645 states.
        monkeypatch.setattr(_dfa, "_built", {})
        monkeypatch.setattr(_dfa, "STATE_BUDGET", 2000)
        with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
            strict_counts_by_length(4, 3, 8)
        assert (4, 3) not in _dfa._built
        # Listings are refused at the same budget, though their words are
        # far inside the word cap.
        with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
            list(iter_superpatterns(4, 3, 8))
        assert (4, 3) not in _dfa._built
        # (6, 3) steps the lazy automaton: 170,673 states by length 7.
        monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 2000)
        made = len(automata)
        with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
            strict_counts_by_length(6, 3, 7)
        with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
            list(iter_superpatterns(6, 3, 7))
        assert len(automata) == made + 2 and alive(automata) == []

    def test_a_listing_is_refused_past_the_state_budget(self, monkeypatch, automata):
        # The (5, 4) states the listing's DP needs are not under the state
        # budget, so the listing stops before it counts its words.
        monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 5000)
        with pytest.raises(BudgetExceededError, match="the automaton for k=4, d=5 exceeded 5000 states"):
            next(iter_superpatterns(5, 4, 12))
        assert len(automata) == 1 and alive(automata) == []

    @pytest.mark.parametrize(
        "cap,value,overrun",
        [
            ("SEARCH_STATE_BUDGET", 1000, lambda: strict_counts_by_length(5, 4, 12)),
            ("SEARCH_STATE_BUDGET", 1000, lambda: list(iter_strict_superpatterns(5, 4, 12))),
        ],
        ids=["count", "listing"],
    )
    def test_no_overrun_automaton_outlives_the_call(self, monkeypatch, automata, cap, value, overrun):
        monkeypatch.setattr(automaton, cap, value)
        with pytest.raises(BudgetExceededError, match=f"the automaton for k=4, d=5 exceeded {value} "):
            overrun()
        assert len(automata) == 1 and alive(automata) == []

    def test_counts_keep_one_level(self):
        strict_counts_by_length(3, 3, 7)  # builds the automaton outside the trace
        tracemalloc.start()
        try:
            counts = strict_counts_by_length(3, 3, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[300] == count_formulas(300).s_total
        # Keeping all 300 levels of several hundred counts peaks at about 7.5 MB;
        # one level, at about 0.2 MB.
        assert peak < 2**20

    def test_no_superpattern_when_k_exceeds_d(self, monkeypatch):
        def no_automaton(d, k):
            raise AssertionError("no automaton should be built")

        monkeypatch.setattr(classify_module, "get_automaton", no_automaton)
        monkeypatch.setattr(classify_module, "close_and_minimise", no_automaton)
        assert strict_counts_by_length(2, 8, 30) == dict.fromkeys(range(1, 31), 0)
        assert list(iter_superpatterns(2, 20, 5)) == []
        assert list(iter_strict_superpatterns(1, 9, 4)) == []
        # A listing is bounded by the words it prints, and here there are none.
        assert list(iter_superpatterns(2, 8, 25)) == []
        with pytest.raises(ValueError):
            list(iter_superpatterns(0, 3, 2))
        with pytest.raises(ValueError):
            strict_counts_by_length(2, 0, 3)

    def test_counts_below_the_least_length_need_no_automaton(self, monkeypatch):
        def no_automaton(d, k):
            raise AssertionError("no automaton should be built")

        monkeypatch.setattr(classify_module, "get_automaton", no_automaton)
        monkeypatch.setattr(classify_module, "close_and_minimise", no_automaton)
        assert strict_counts_by_length(3, 3, 6) == dict.fromkeys(range(1, 7), 0)
        assert strict_counts_by_length(256, 2, 2) == {1: 0, 2: 0}
        assert count_strict_superpatterns(4, 4, 11) == count_strict_superpatterns(9, 5, 8) == 0
        # From the least length on, the automaton is made before the first
        # count, when the counts are asked for and not when they are read.
        with pytest.raises(AssertionError, match="no automaton"):
            classify_module._strict_counts(3, 3, 7)
        with pytest.raises(ValueError):
            strict_counts_by_length(7, 6, 3)  # a pattern length past the cap

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_short_wide_counts_stay_small(self):
        # Counting the pairs over 256 letters to length 2 peaked at 904 MB
        # when the lazy automaton interned every state of length 2.
        script = (
            "import gc\n"
            "from superpatterns import ContainmentAutomaton, strict_counts_by_length\n"
            "counts = strict_counts_by_length(256, 2, 2)\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "gc.collect()\n"
            "held = sum(isinstance(o, ContainmentAutomaton) for o in gc.get_objects())\n"
            "print(sum(counts.values()), held, peak)\n"
        )
        total, held, peak_kb = map(int, _run_fresh(script).split())
        assert (total, held) == (0, 0)
        assert peak_kb / 1024 < 40


def _outcome(run):
    """What a call returns, or the type of the error it raises when it
    refuses its input or a budget is passed."""
    try:
        return run()
    except (ValueError, BudgetExceededError) as e:
        return type(e)


# Word spaces by (d, k): each letter rule from the empty word, and for (3, 3)
# also the alternating space the minimal listings read, from 1,2.  (5, 3) is
# the largest DFA the rule picks, at 20,193 states.
SPACES = {
    (2, 2, 24): [(_ANY, ())],
    (3, 2, 16): [(_ANY, ())],
    (4, 3, 9): [(_ANY, ())],
    (5, 3, 7): [(_ANY, ()), (_NO_REPEAT, ())],
    (3, 3, 14): [(_ANY, ()), (_NO_REPEAT, ()), (_NO_REPEAT, (1, 2)), (_CANONICAL, ())],
}


class TestBothAutomata:
    """The word-space DP stepped over the minimal DFA gives the same counts,
    ordered listings and least-length proofs as stepped over the lazy
    automaton.  Each test forces one route and then the other through the
    one rule's bound, _DFA_BOUND."""

    ROUTES = {"dfa": float("inf"), "lazy": 0}

    def on_each(self, monkeypatch, run):
        results = {}
        for route, bound in self.ROUTES.items():
            monkeypatch.setattr(classify_module, "_DFA_BOUND", bound)
            results[route] = run()
        return results

    def test_each_route_steps_its_own_automaton(self, monkeypatch, automata):
        # The counts' automaton is gone by the time the space's is read, so
        # only a lazy space holds one.
        def stepped():
            space = _WordSpace(3, 3, _ANY)
            assert strict_counts_by_length(3, 3, 14)[14] == count_formulas(14).s_total
            return space.auto.accepting, [auto.accepting for auto in alive(automata)]

        routes = self.on_each(monkeypatch, stepped)
        accepting, held = routes["dfa"]
        assert len(accepting) == len(close_and_minimise(3, 3)[0]) == 44 and held == []
        accepting, held = routes["lazy"]
        assert len(held) == 1 and held[0] is accepting

    def test_the_rule_picks_the_dfa_up_to_the_bound(self, automata):
        # A lazy space steps an automaton it holds; the DFA route holds none.
        def steps_a_lazy_automaton(d: int, k: int) -> bool:
            auto = _WordSpace(d, k, _ANY).auto
            return any(lazy.accepting is auto.accepting for lazy in alive(automata))

        # The DFA is picked while d**k and k**d are both at most 256: on each
        # side of the edge in d for k = 1 to 4, and at (5, 5).
        edges = [(1, 1), (256, 1), (257, 1), (2, 2), (8, 2), (9, 2), (3, 3), (5, 3), (6, 3), (4, 4), (5, 4), (5, 5)]
        picked = {(d, k): not steps_a_lazy_automaton(d, k) for d, k in edges}
        assert [dk for dk, dfa in picked.items() if dfa] == [(1, 1), (256, 1), (2, 2), (8, 2), (3, 3), (5, 3), (4, 4)]

    @pytest.mark.parametrize("d,k,n_max", list(SPACES))
    def test_counts_agree(self, monkeypatch, d, k, n_max):
        # Per length: the words the level holds, and the hits.
        def counts():
            return [
                [(sum(level.values()), hit) for level, hit in _WordSpace(d, k, rule, prefix).levels(n_max, strict)]
                for rule, prefix in SPACES[d, k, n_max]
                for strict in (False, True)
            ]

        counted = self.on_each(monkeypatch, counts)
        assert counted["dfa"] == counted["lazy"]

    @pytest.mark.parametrize("d,k,n_max", list(SPACES))
    def test_ordered_listings_agree(self, monkeypatch, d, k, n_max):
        # Listings of up to 10,000 words are compared word by word; longer
        # ones must be refused on both routes.
        def listings():
            return [
                _outcome(lambda: list(_WordSpace(d, k, rule, prefix).walk(n, strict, 10_000)))
                for rule, prefix in SPACES[d, k, n_max]
                for strict in (False, True)
                for n in range(n_max + 1)
            ]

        listed = self.on_each(monkeypatch, listings)
        assert listed["dfa"] == listed["lazy"]
        assert sum(len(words) for words in listed["dfa"] if isinstance(words, list)) > 4_000

    @pytest.mark.parametrize("k,d", [(k, d) for k in (1, 2, 3) for d in (*range(k, 7), 20)])
    def test_no_word_below_the_least_length_is_a_superpattern(self, monkeypatch, k, d):
        hits = self.on_each(monkeypatch, lambda: _hits_below_least_length(k, d))
        assert hits["dfa"] == hits["lazy"] == [0] * min_superpattern_length(k, d)

    def test_no_dp_makes_no_automaton(self, monkeypatch):
        # The automaton is made when the DP first steps: a listing shorter
        # than the least superpattern length runs none.
        def no_automaton(d, k):
            raise AssertionError("no automaton should be made")

        monkeypatch.setattr(classify_module, "get_automaton", no_automaton)
        monkeypatch.setattr(classify_module, "close_and_minimise", no_automaton)
        assert list(iter_superpatterns(4, 3, 4)) == []
        assert list(iter_strict_superpatterns(5, 3, 4)) == []
        assert list(_minimal_listing(4, True, None)) == []


class TestWordCap:
    """A listing is refused exactly when what it would print passes its
    budget B: more than B words, or more than B * (B.bit_length() + 1)
    letters, whichever of the walker's two checks refuses it."""

    LISTINGS = {
        "strict-minimal": iter_strict_minimal_upto_iso,
        "minimal": lambda n, budget: _minimal_listing(n, False, budget),
        "(3,3) strict": lambda n, budget: iter_strict_superpatterns(3, 3, n, budget),
        "(3,3) canonical-all": lambda n, budget: iter_superpatterns(3, 3, n, canonical=True, budget=budget),
        "(4,3) strict": lambda n, budget: iter_strict_superpatterns(4, 3, n, budget),
    }

    def listed(self, space: str, n: int, budget: int) -> list[Word]:
        return list(self.LISTINGS[space](n, budget))

    def exact_counts(self, space: str) -> dict[int, int]:
        """Each length's count by a route other than the walker's."""
        if space == "strict-minimal":
            return {n: count_strict_minimal_upto_iso(n) for n in range(3, 81)}
        if space == "minimal":
            return {n: count_minimal_upto_iso(n) for n in range(3, 81)}
        if space == "(3,3) strict":
            return strict_counts_by_length(3, 3, 80)
        if space == "(4,3) strict":
            return strict_counts_by_length(4, 3, 18)
        return {n: len(self.listed(space, n, 10**9)) for n in range(1, 11)}

    @pytest.mark.parametrize("budget", [100, 5000])
    @pytest.mark.parametrize("space", list(LISTINGS))
    def test_refused_exactly_when_the_count_passes_the_budget(self, space, budget):
        letter_cap = budget * (budget.bit_length() + 1)
        for n, count in self.exact_counts(space).items():
            try:
                words = self.listed(space, n, budget)
            except BudgetExceededError:
                assert count > budget or count * n > letter_cap, n
            else:
                assert len(words) == count <= budget and count * n <= letter_cap, n

    @pytest.mark.parametrize(
        "space,n,count,budget,what",
        [
            # Words bind: 1,608 words of 9 letters fit 1,608 * 12 letters.
            ("(3,3) strict", 9, 1608, 1608, "strict-superpattern listing"),
            # Both bind at once: 77 words of 8 letters are 77 * 8 letters.
            ("(3,3) canonical-all", 8, 77, 77, "superpattern listing"),
            # Letters bind: 527 * 27 = 14,229 letters, and 1,186 * 12 = 14,232.
            ("strict-minimal", 27, 527, 1186, "strict-minimal listing"),
            # 924 * 12 = 11,088 letters, exactly 1,008 * 11.
            ("minimal", 12, 924, 1008, "minimal-superpattern listing"),
        ],
    )
    def test_the_least_budget_that_fits_answers_and_one_less_refuses(self, space, n, count, budget, what):
        assert len(self.listed(space, n, budget)) == count
        cap = budget - 1
        message = (
            f"{what} at n={n} would print {count} words of {n} letters,"
            f" over the cap of {cap} words or {cap * (cap.bit_length() + 1)} letters"
        )
        with pytest.raises(BudgetExceededError) as exc:
            self.listed(space, n, cap)
        assert str(exc.value) == message

    def test_the_default_cap_answers_strict_minimal_listings_to_761(self):
        # 757^2 - 2 = 573,047 words of 761 letters fit 2^24 * 26 letters;
        # 758^2 - 2 words of 762 letters do not.  The tail blocks built
        # before the first word hold no more letters than there are words.
        start = time.process_time()
        assert len(next(iter_strict_minimal_upto_iso(761)).letters) == 761
        assert time.process_time() - start < 0.5
        with pytest.raises(BudgetExceededError, match="would print 574562 words of 762 letters"):
            next(iter_strict_minimal_upto_iso(762))

    @pytest.mark.parametrize(
        "listing",
        [
            lambda: iter_strict_superpatterns(2, 2, 10**7),
            lambda: iter_strict_superpatterns(3, 2, 10**7),
            lambda: iter_superpatterns(2, 1, 10**7),
        ],
        ids=["(2,2) strict", "(3,2) strict", "(2,1) all"],
    )
    def test_slowly_growing_listings_are_refused_at_once(self, listing):
        # Counts growing only polynomially in n still pass the letter cap
        # within a few levels of the forward pass.
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="would print at least"):
            list(listing())
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_a_strict_listing_whose_levels_empty_returns_at_once(self, d):
        # Every word of one letter is a strict 1-superpattern, so no longer
        # one is: the forward pass ends at the first empty level.
        start = time.process_time()
        assert list(iter_strict_superpatterns(d, 1, 3 * 10**7)) == []
        assert time.process_time() - start < 0.5


# The most distinct letters a word may have for the queries at k = 3, 4
# and 5: w**k stays within MAX_INSTANCES.
WIDEST = {3: 40, 4: 16, 5: 9}


@st.composite
def words_at_the_edges(draw):
    """A k in 1..5 and a word whose distinct letters, drawn from 1..w + 3,
    number w: none, 1 to k + 1, or for k >= 3 the most the queries take or
    one more."""
    k = draw(st.integers(1, 5))
    w = draw(st.sampled_from([0, draw(st.integers(1, k + 1)), *(WIDEST[k] + e for e in (0, 1) if k in WIDEST)]))
    values = draw(st.lists(st.integers(1, w + 3), min_size=w, max_size=w, unique=True))
    repeats = draw(st.lists(st.sampled_from(values), max_size=8)) if values else []
    return Word(tuple(draw(st.permutations(values + repeats))), w + 3), k


class TestQueriesAgainstBacktracking:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(words_at_the_edges())
    def test_the_four_queries_agree_with_backtracking(self, word_k):
        word, k = word_k
        patterns = enumerate_preferential_arrangements(k)
        assert contains_pattern(word, Pattern(()))
        if len(set(word.letters)) ** k > MAX_INSTANCES:
            for query in (classify, missing_patterns, is_superpattern, lambda w, k: contains_pattern(w, patterns[-1])):
                with pytest.raises(BudgetExceededError, match="pattern instances"):
                    query(word, k)
            return
        missing = [p for p in patterns if find_embedding(word, p) is None]
        assert [p for p in patterns if not contains_pattern(word, p)] == missing
        assert missing_patterns(word, k) == missing
        assert is_superpattern(word, k) == (not missing)
        assert classify(word, k) == classify_by_backtracking(word, k)

    @pytest.mark.parametrize(
        "query",
        [
            classify,
            missing_patterns,
            is_superpattern,
            lambda w, k: [contains_pattern(w, p) for p in enumerate_preferential_arrangements(k)],
        ],
        ids=["classify", "missing", "superpattern", "containment"],
    )
    def test_the_queries_make_no_automaton(self, automata, query):
        w = Word.parse("4213425412441")
        for k in range(1, 5):
            query(w, k)
        assert automata == []

    @pytest.mark.parametrize(
        "text, k, places",
        [
            # k = 1: one pattern, one guard.
            ("", 1, [0]),
            ("5", 1, [0]),
            # Fields of several bytes: 2 and 5 at (9, 2), 6 and 98 at (40, 2).
            ("123456789", 2, [1, 6, 11]),
            ("987654321", 2, [1, 6, 11]),
            ("912345678", 2, [1, 6, 11]),
            ("1234567899", 2, [1, 6, 11]),
            (",".join(map(str, range(1, 41))), 2, [5, 103, 201]),
            (",".join(map(str, range(40, 0, -1))), 2, [5, 103, 201]),
            (",".join(map(str, [*range(2, 41), 1, 40])), 2, [5, 103, 201]),
            # The empty word.
            ("", 2, [0, 1, 2]),
            ("", 3, list(range(13))),
            # Superpatterns, which take the early return.
            ("121", 2, [0, 1, 2]),
            ("1213121", 3, list(range(13))),
            ("123413214231", 4, list(range(75))),
        ],
    )
    def test_missing_patterns_reads_each_guard_byte(self, text, k, places):
        word = Word.parse(text)
        ranked = patterns_module._ranked(word)
        assert patterns_module._matcher(ranked.alphabet_size, k).places == places
        patterns = enumerate_preferential_arrangements(k)
        assert missing_patterns(word, k) == [p for p in patterns if find_embedding(word, p) is None]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_wide_missing_pattern_queries_stay_small(self):
        # 2,000 words of 25 letters over ten letters at k = 4 peaked at 218 MB
        # when each query kept what it had stepped in the shared automaton.
        script = (
            "import random\n"
            "from superpatterns import Word, missing_patterns\n"
            "rng = random.Random(4)\n"
            "for _ in range(2000):\n"
            "    missing_patterns(Word(tuple(rng.choices(range(1, 11), k=25)), 10), 4)\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        )
        assert int(_run_fresh(script)) / 1024 < 40


def _run_fresh(script: str) -> str:
    """The standard output of a script run in a fresh interpreter on this
    checkout's package."""
    src = str(Path(classify_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout


def _no_repeat(letters: tuple[int, ...]) -> bool:
    return all(a != b for a, b in zip(letters, letters[1:]))


def _canonical(letters: tuple[int, ...]) -> bool:
    return all(a <= max(letters[:i], default=0) + 1 for i, a in enumerate(letters))


class TestWalker:
    RULES = {_ANY: lambda letters: True, _NO_REPEAT: _no_repeat, _CANONICAL: _canonical}

    @pytest.mark.parametrize(
        "d,k,lengths", [(2, 2, range(0, 15)), (3, 2, range(0, 6)), (3, 3, range(6, 11)), (4, 3, (7,))]
    )
    def test_equals_a_filter_over_all_words(self, d, k, lengths):
        # The tail blocks rise past depth n - 2 at (3, 3) n = 10, and at
        # (2, 2) up to n - 5 at n = 13 and 14 (any letter and canonical); the
        # two-letter alternating space holds one word per prefix, so there
        # they stay at n - 1.
        for n in lengths:
            words = list(all_words(d, n))
            verdict = {w.letters: is_superpattern(w, k) for w in words}
            if n:
                verdict.update((w.letters, is_superpattern(w, k)) for w in all_words(d, n - 1))
            for rule, allowed in self.RULES.items():
                for prefix in ((), (1, 2)):
                    space = [
                        w for w in words
                        if w.letters[: len(prefix)] == prefix and allowed(w.letters) and verdict[w.letters]
                    ]
                    strict = [w for w in space if not verdict[w.letters[:-1]]]
                    walker = _WordSpace(d, k, rule, prefix)
                    listed = list(walker.walk(n, False, None))
                    assert listed == space, (rule, prefix, n)
                    assert list(walker.walk(n, True, None)) == strict, (rule, prefix, n)
                    # The walker builds its words unchecked; each is still the
                    # checked Word in value, hash and text.
                    for w in listed:
                        checked = Word(w.letters, w.alphabet_size)
                        assert (w, hash(w), str(w)) == (checked, hash(checked), str(checked))

    def test_public_listings_use_the_walker(self):
        strict = _WordSpace(3, 3, _ANY).walk(8, True, None)
        assert list(iter_strict_superpatterns(3, 3, 8)) == list(strict)
        canonical = _WordSpace(3, 3, _CANONICAL).walk(8, False, None)
        assert list(iter_superpatterns(3, 3, 8, canonical=True)) == list(canonical)
        alternating = _WordSpace(3, 3, _NO_REPEAT, (1, 2))
        assert list(iter_strict_minimal_upto_iso(9)) == list(alternating.walk(9, True, None))

    def test_tail_blocks_spare_the_walk_most_prefixes(self, monkeypatch):
        # The (3, 3) strict words of length 14 share their last five letters
        # among 10,682 tails, and the walk expands 17,432 nodes; stepping
        # down to depth n - 2 for every prefix took 182,924.
        expansions = 0
        moves = _WordSpace.moves

        def counted(space, node):
            nonlocal expansions
            expansions += 1
            return moves(space, node)

        monkeypatch.setattr(_WordSpace, "moves", counted)
        words = sum(1 for _ in iter_strict_superpatterns(3, 3, 14))
        assert words == 414_024
        assert expansions < words / 10

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_tail_blocks_keep_the_listing_small(self):
        # Draining the 414,024 strict (3, 3) words of length 14 peaks near
        # 18 MB (16.5 MB with two-letter tails only); a fresh interpreter, so
        # that no earlier test sets the peak.
        script = (
            "from superpatterns import iter_strict_superpatterns\n"
            "count = sum(1 for _ in iter_strict_superpatterns(3, 3, 14))\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(count, next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        )
        count, peak_kb = map(int, _run_fresh(script).split())
        assert count == 414_024
        assert peak_kb / 1024 < 24

    def test_listings_shorter_than_two_k_less_one_are_empty(self):
        # 1...1 and 12...k share at most one letter of a k-superpattern, so
        # it has at least 2k - 1; at 2k - 1 there are words.
        for k in range(1, 6):
            for n in range(2 * k - 1):
                assert list(_WordSpace(k, k, _ANY).walk(n, False, None)) == [], (k, n)
        assert [str(w) for w in iter_strict_superpatterns(2, 2, 3)] == ["121", "212"]
        assert [str(w) for w in iter_superpatterns(3, 3, 5)] == []

    def test_the_walk_is_linear_in_the_letters_it_prints(self):
        # One word of 10^5 letters: the walk shares one path of letters, so
        # it copies no prefix per depth.
        start = time.process_time()
        (word,) = iter_superpatterns(1, 1, 10**5)
        assert time.process_time() - start < 1.0
        assert word.letters == (1,) * 10**5

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_one_long_word_keeps_few_levels(self):
        # One node per depth: a DP dict and an alive set per depth peaked at
        # 149 MB here; equal levels stored once stay near the interpreter's
        # own.  A fresh interpreter, so that no earlier test sets the peak.
        script = (
            "from superpatterns import iter_superpatterns\n"
            "(word,) = iter_superpatterns(1, 1, 300_000)\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print(len(word), next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        )
        length, peak_kb = map(int, _run_fresh(script).split())
        assert length == 300_000
        assert peak_kb / 1024 < 60

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="word length"):
            list(iter_strict_superpatterns(3, 3, -1))
        with pytest.raises(ValueError, match="word length"):
            list(iter_superpatterns(3, 3, -3, canonical=True))


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

    def test_s_a_equals_the_binomial_sum(self):
        for n in [*range(7, 301), 2000]:
            assert count_formulas(n).s_a == strict_count_upto_iso_by_terms(n), n


class TestBetaBruteforce:
    @pytest.mark.parametrize("n,expected", [(7, (14, 11)), (8, (22, 14)), (10, (44, 20))])
    def test_matches_closed_form(self, n, expected):
        assert count_beta_bruteforce(n) == expected
        assert expected == (n * n - 7 * n + 14, 3 * n - 10)

    def test_splits_total_failures(self):
        for n in range(7, 13):
            a, b = count_beta_bruteforce(n)
            assert a + b == (n - 2) ** 2


class TestFlankingPairs:
    def test_holds_on_the_seven(self):
        for w in minimum_superpatterns_ternary():
            assert has_flanking_pairs(w)

    def test_fails_on_non_superpattern(self):
        assert not has_flanking_pairs(Word.parse("123123"))
        assert not has_flanking_pairs(Word.parse("121212", alphabet_size=3))

    def test_holds_on_all_strict_superpatterns_at_eight(self):
        assert all(has_flanking_pairs(w) for w in iter_strict_superpatterns(3, 3, 8))

    def test_equals_the_scanning_oracle_exhaustively(self):
        for n in range(0, 11):
            for w in all_words(3, n):
                assert has_flanking_pairs(w) == flanking_pairs_by_scanning(w), w

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=11, max_size=80), st.integers(3, 5))
    def test_equals_the_scanning_oracle_on_longer_words(self, letters, d):
        w = Word(tuple(letters), d)
        assert has_flanking_pairs(w) == flanking_pairs_by_scanning(w)

    @pytest.mark.parametrize(
        "letters,expected",
        [
            ((1,) * 500_000 + (2,) * 500_000, False),
            ((1,) * 200_000 + (2,) * 200_000 + (3,) * 200_000 + (2,) * 200_000 + (1,) * 200_000, False),
            ((1, 2) * 500_000 + (3,), False),
            ((3,) * 500_000 + (1, 2) * 250_000, False),
            ((1, 2, 3) * 333_334 + (3, 2, 1), True),
        ],
        ids=["1^N 2^N", "1^N 2^N 3^N 2^N 1^N", "(12)^N 3", "3^N (12)^N", "(123)^N 321"],
    )
    def test_equals_the_scanning_oracle_on_million_letter_words(self, letters, expected):
        # Long runs that a backtracking match could rescan; it stays linear.
        w = Word(letters, 3)
        start = time.process_time()
        assert has_flanking_pairs(w) == expected
        assert time.process_time() - start < 1.0
        assert flanking_pairs_by_scanning(w) == expected

    def test_rejects_wide_alphabets(self):
        with pytest.raises(ValueError):
            has_flanking_pairs(Word.parse("1214"))
        with pytest.raises(ValueError):
            has_flanking_pairs(Word((1, 2, 4), 4))
        # A wide alphabet whose letters stay in 1..3 is answered.
        assert has_flanking_pairs(Word((1, 2, 3), 4)) is False

    def test_necessity_exhaustively_at_length_eight(self):
        # Superpattern implies flanking.
        for w in all_words(3, 8):
            if is_superpattern(w, 3):
                assert has_flanking_pairs(w)

    def test_picks_out_exactly_the_ternary_superpatterns(self):
        # Over {1, 2, 3} the six orderings of 1, 2, 3 are the only instances
        # of the six permutation patterns, and a word holding every
        # permutation holds every pattern of length 3
        # (test_dfa.py::test_the_permutations_alone_give_the_superpattern_dfa),
        # so the condition is sufficient too.
        for n in range(10):
            for w in all_words(3, n):
                assert has_flanking_pairs(w) == is_superpattern(w, 3), w


class TestTerminalMinimumEmbedding:
    def test_length_seven_words_embed_themselves(self):
        for w in minimum_superpatterns_ternary():
            assert ends_with_minimum_superpattern(w)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_holds_for_all_strict_minimal(self, n):
        for w in iter_strict_minimal_upto_iso(n):
            assert ends_with_minimum_superpattern(w)

    def test_equals_the_subset_search_on_strict_minimal_words(self):
        for n in range(7, 13):
            for w in iter_strict_minimal_upto_iso(n):
                assert ends_with_minimum_superpattern(w) == ends_with_minimum_by_subsets(w), w

    def test_equals_the_subset_search_on_random_words(self):
        # Most of these words end with no minimum superpattern, so the False
        # branch runs too; over four letters the images use any three of them.
        rng = random.Random(12)
        for d in (3, 4):
            for _ in range(600):
                w = Word(tuple(rng.choices(range(1, d + 1), k=rng.randint(1, 12))), d)
                assert _ends_with_minimum(w) == ends_with_minimum_by_subsets(w), w

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
        # The library tests only the subsequences with no two equal adjacent
        # letters, by L(4,4) = 12; the oracle tests all 455 and needs no bound.
        assert verify_quaternary_counterexample()
        assert quaternary_claim_by_all_subsequences(QUATERNARY_EXAMPLE)

    def test_a_word_that_embeds_a_minimum_superpattern_is_refused(self, monkeypatch):
        # A strict 15-letter 4-superpattern that embeds the minimum one
        # 123413214231: drop its 3rd, 9th and 12th letters.
        word = Word.parse("121341322141231", alphabet_size=4)
        assert is_superpattern(word, 4) and not is_superpattern(word.prefix(14), 4)
        monkeypatch.setattr(classify_module, "QUATERNARY_EXAMPLE", word)
        assert not verify_quaternary_counterexample()
        assert not quaternary_claim_by_all_subsequences(word)

    def test_word_is_strict_for_k4(self):
        assert is_superpattern(QUATERNARY_EXAMPLE, 4)
        assert not is_superpattern(QUATERNARY_EXAMPLE.prefix(14), 4)

    def test_the_trie_walk_agrees_with_every_subsequence(self, monkeypatch):
        # The walk tests each distinct subsequence with no two equal
        # adjacent letters once; the oracle tests every index choice.
        outcomes = []

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(strict_quaternary_superpatterns())
        def agrees(word):
            monkeypatch.setattr(classify_module, "QUATERNARY_EXAMPLE", word)
            claim = verify_quaternary_counterexample()
            assert claim == quaternary_claim_by_all_subsequences(word)
            outcomes.append(claim)

        agrees()
        assert set(outcomes) == {True, False}
