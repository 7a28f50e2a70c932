from __future__ import annotations

import copy
import math
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns import (
    BudgetExceededError,
    ClassFlags,
    CountReport,
    Pattern,
    Polynomial,
    RationalFunction,
    SimSummary,
    Word,
    automaton,
    contains_pattern,
    dense_rank,
    enumerate_preferential_arrangements,
    fubini,
    missing_patterns,
    relabel_canonical,
)
from superpatterns import patterns
from superpatterns.oeis import SequenceCheck
from superpatterns.patterns import MAX_PATTERN_LENGTH

from conftest import all_words, contains_pattern_bruteforce, find_embedding


class TestWordParsing:
    def test_digit_string_round_trip(self):
        w = Word.parse("5371473")
        assert w.letters == (5, 3, 7, 1, 4, 7, 3)
        assert w.alphabet_size == 7
        assert str(w) == "5371473"

    def test_comma_form_for_wide_alphabets(self):
        w = Word.parse("10,2,11")
        assert w.letters == (10, 2, 11)
        assert str(w) == "10,2,11"
        assert Word.parse(str(w)) == w

    def test_digit_text_is_formed_in_one_step(self):
        w = Word(tuple(random.Random(7).choices(range(1, 10), k=300_000)), 9)
        tracemalloc.start()
        try:
            text = str(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Word.parse(text) == w
        # One string per letter peaked at about 17 MB; the letters' bytes,
        # translated, at about 0.6 MB.
        assert peak < 2 * 2**20

    def test_explicit_alphabet_size(self):
        w = Word.parse("121", alphabet_size=3)
        assert w.alphabet_size == 3

    @pytest.mark.parametrize(
        "bad",
        ["12x", "0", "1 2", "1,0", "\uff11\uff12\uff11", "12\u00b2", "\uff11,\uff12,\uff11", " 1,2", "+1,2", "1_0,2",
         "1,,2", "--1,2"],
    )
    def test_malformed_words_rejected(self, bad):
        # Only ASCII digits are letters, in either form: fullwidth digits and
        # superscripts, which str.isdigit() also accepts, are malformed, and
        # so are the signs, spaces and underscores int() reads.
        with pytest.raises(ValueError, match="malformed word"):
            Word.parse(bad)

    @pytest.mark.parametrize("bad", ["-1,2", "1,-2"])
    def test_negative_comma_letters_are_named_as_such(self, bad):
        with pytest.raises(ValueError, match="letters must be positive"):
            Word.parse(bad)

    def test_letter_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Word((1, 4), 3)

    @pytest.mark.parametrize(
        "letters,alphabet_size",
        [((0,), 3), ((4,), 3), ((), 0)],
        ids=["letter 0", "letter 4 of 3", "alphabet 0"],
    )
    def test_the_public_constructor_checks_every_word(self, letters, alphabet_size):
        # The listings build their words unchecked; Word(...) itself does not.
        with pytest.raises(ValueError):
            Word(letters, alphabet_size)

    def test_letters_are_stored_as_a_tuple(self):
        # A list passed in is copied, so the word neither changes with it
        # nor fails to hash.
        letters = [1, 2, 1]
        w, p = Word(letters, 2), Pattern(letters)
        letters.append(2)
        assert type(w.letters) is type(p.letters) is tuple
        assert w == Word((1, 2, 1), 2) and hash(w) == hash(Word((1, 2, 1), 2))
        assert p == Pattern((1, 2, 1)) and hash(p) == hash(Pattern((1, 2, 1)))

    def test_empty_word(self):
        w = Word.parse("")
        assert len(w) == 0


class TestDenseRank:
    @pytest.mark.parametrize(
        "word,expected",
        [("571", "231"), ("574", "231"), ("473", "231"), ("373", "121"), ("343", "121"),
         ("111", "111"), ("", "")],
    )
    def test_examples(self, word, expected):
        assert str(dense_rank(Word.parse(word))) == expected

    def test_idempotent_exhaustively(self):
        for n in range(5):
            for w in all_words(4, n):
                once = dense_rank(w)
                assert dense_rank(Word(once.letters, 4)) == once

    def test_order_isomorphism_contract(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(0, 9)
            letters = tuple(rng.randrange(1, 10) for _ in range(n))
            ranks = dense_rank(Word(letters, 9)).letters
            for i in range(n):
                for j in range(n):
                    assert (ranks[i] < ranks[j]) == (letters[i] < letters[j])
                    assert (ranks[i] == ranks[j]) == (letters[i] == letters[j])

    def test_invariant_under_increasing_relabeling(self):
        rng = random.Random(7)
        for _ in range(100):
            letters = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 8)))
            squeezed = tuple(2 * v + 3 for v in letters)
            assert dense_rank(Word(letters, 5)) == dense_rank(Word(squeezed, 13))


class TestPatternType:
    def test_canonical_accepted(self):
        assert Pattern.parse("221").letters == (2, 2, 1)

    @pytest.mark.parametrize("bad", ["131", "2", "224"])
    def test_non_canonical_rejected(self, bad):
        with pytest.raises(ValueError):
            Pattern.parse(bad)

    def test_rejection_names_the_letters_as_parse_reads_them(self):
        with pytest.raises(ValueError, match=r"^'1,3,10' is not dense-rank canonical$"):
            Pattern.parse("1,3,10")
        with pytest.raises(ValueError, match=r"^'131' is not dense-rank canonical$"):
            Pattern.parse("131")
        with pytest.raises(ValueError, match=r"^'-1,1' is not dense-rank canonical$"):
            Pattern((-1, 1))

    def test_dense_rank_fixed_point(self):
        for k in range(1, 5):
            for p in enumerate_preferential_arrangements(k):
                assert dense_rank(Word(p.letters, k)) == p


class TestContainment:
    def test_worked_example(self):
        w = Word.parse("5371473")
        assert contains_pattern(w, Pattern.parse("231"))
        assert contains_pattern(w, Pattern.parse("121"))

    def test_word_contains_itself_as_pattern(self):
        for k in range(1, 5):
            for p in enumerate_preferential_arrangements(k):
                assert contains_pattern(Word(p.letters, k), p)

    def test_needs_enough_distinct_values(self):
        assert not contains_pattern(Word.parse("111111"), Pattern.parse("123"))

    def test_agrees_with_bruteforce_exhaustively(self):
        patterns = [p for k in (1, 2, 3) for p in enumerate_preferential_arrangements(k)]
        for n in range(0, 6):
            for w in all_words(3, n):
                for p in patterns:
                    assert contains_pattern(w, p) == contains_pattern_bruteforce(w, p)

    def test_agrees_with_bruteforce_on_random_words(self):
        rng = random.Random(99)
        patterns = [p for k in (2, 3, 4) for p in enumerate_preferential_arrangements(k)]
        for _ in range(60):
            n = rng.randrange(4, 11)
            d = rng.randrange(2, 6)
            w = Word(tuple(rng.randrange(1, d + 1) for _ in range(n)), d)
            for p in rng.sample(patterns, 12):
                assert contains_pattern(w, p) == contains_pattern_bruteforce(w, p), (w, p)

    def test_bruteforce_cap(self):
        with pytest.raises(ValueError):
            contains_pattern_bruteforce(Word((1,) * 11, 1), Pattern.parse("11"))

    def test_empty_pattern_is_in_every_word(self):
        for text in ("", "1", "5371473"):
            assert contains_pattern(Word.parse(text, alphabet_size=7), Pattern(()))

    def test_empty_word_contains_no_longer_pattern(self):
        empty = Word((), 3)
        for k in range(1, 6):
            assert not any(contains_pattern(empty, p) for p in enumerate_preferential_arrangements(k))

    def test_pattern_over_the_cap_refused_before_any_matcher(self, monkeypatch):
        def no_matcher(w, k, patterns):
            raise AssertionError(f"built a ({w}, {k}) matcher")

        monkeypatch.setattr(patterns, "_Matcher", no_matcher)
        for text in ("1", "12345678", "1" * 20):
            with pytest.raises(ValueError, match="pattern length k=6 is over the cap of 5"):
                contains_pattern(Word.parse(text), Pattern.parse("123456"))

    @pytest.mark.parametrize("k,widest", [(3, 40), (4, 16), (5, 9)])
    def test_words_too_wide_for_the_instance_cap_refused(self, k, widest):
        # The (w, k) matcher tracks w**k instances, at most MAX_INSTANCES;
        # the widest word it takes is answered, one letter more is refused.
        assert widest**k <= automaton.MAX_INSTANCES < (widest + 1) ** k
        ones = Pattern((1,) * k)
        word = Word(tuple(range(1, widest + 1)), widest + 3)
        assert not contains_pattern(word, ones)
        assert contains_pattern(Word(word.letters * k, widest + 3), ones)
        wider = Word((*word.letters, widest + 3), widest + 3)
        with pytest.raises(BudgetExceededError):
            contains_pattern(wider, ones)

    def test_the_matcher_cache_drops_the_oldest_past_its_bit_budget(self, monkeypatch):
        monkeypatch.setattr(patterns, "_matchers", {})
        every = [p.letters for p in enumerate_preferential_arrangements(3)]
        sizes = {w: patterns._Matcher(w, 3, every).bits for w in (20, 21, 22)}
        monkeypatch.setattr(patterns, "_MATCHER_BITS", sizes[21] + sizes[22])
        for w in (20, 21, 22):
            assert missing_patterns(Word(tuple(range(1, w + 1)), w), 3)
        assert list(patterns._matchers) == [(21, 3), (22, 3)]
        assert sum(m.bits for m in patterns._matchers.values()) <= patterns._MATCHER_BITS

    def test_the_largest_matcher_fits_the_cache_budget(self, monkeypatch):
        # Bits per matcher: w letters times k levels of fields of whole bytes,
        # one field per pattern holding its C(w, m) instances and a guard
        # bit, and 64 per entry of the mask list.  (256, 2) is the largest;
        # for k = 1 every letter shares one mask of one byte.
        def bits(w, k):
            fields = sum(math.comb(w, max(p.letters)) // 8 + 1 for p in enumerate_preferential_arrangements(k))
            return w * k * 8 * fields + 64 * (w + 1)

        largest = max(
            (bits(w, k), w, k)
            for k in range(2, MAX_PATTERN_LENGTH + 1)
            for w in range(1, 257)
            if w**k <= automaton.MAX_INSTANCES
        )
        monkeypatch.setattr(patterns, "_matchers", {})
        assert largest == (33_583_168, 256, 2) == (patterns._matcher(256, 2).bits, 256, 2)
        widest = automaton.MAX_INSTANCES
        assert patterns._Matcher(widest, 1, [(1,)]).bits == 8 + 64 * (widest + 1) < largest[0]
        assert largest[0] < patterns._MATCHER_BITS

    def test_invariant_under_value_order_preserving_injection(self):
        rng = random.Random(3)
        patterns = enumerate_preferential_arrangements(3)
        for _ in range(80):
            letters = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 9))]
            w = Word(tuple(letters), 3)
            stretched = Word(tuple(3 * v - 1 for v in letters), 8)
            for p in patterns:
                assert contains_pattern(w, p) == contains_pattern(stretched, p)


def least_embeddings(word, k):
    """For each length-k pattern the word contains, the lexicographically
    least index tuple whose subsequence dense-ranks to it, by scanning every
    combination in order."""
    least = {}
    for idxs in combinations(range(len(word)), k):
        sub = Word(tuple(word.letters[i] for i in idxs), word.alphabet_size)
        least.setdefault(dense_rank(sub).letters, idxs)
    return least


class TestFindEmbedding:
    def test_witness_for_increasing_triple(self):
        w = Word.parse("1213121")
        idxs = find_embedding(w, Pattern.parse("123"))
        assert idxs is not None
        assert list(idxs) == sorted(idxs)
        sub = Word(tuple(w.letters[i] for i in idxs), 3)
        assert str(dense_rank(sub)) == "123"

    def test_absent_when_not_contained(self):
        assert find_embedding(Word.parse("121"), Pattern.parse("123")) is None

    def test_identity_witness(self):
        p = Pattern.parse("2131")
        assert find_embedding(Word(p.letters, 3), p) == (0, 1, 2, 3)

    def test_witness_soundness_exhaustively(self):
        # The witness is the lexicographically least embedding, which also
        # makes it a valid one; None exactly when there is none.
        for d, k, n_max in ((3, 3, 6), (4, 4, 5), (2, 2, 6), (5, 3, 4), (3, 2, 5)):
            patterns = enumerate_preferential_arrangements(k)
            for n in range(n_max + 1):
                for w in all_words(d, n):
                    least = least_embeddings(w, k)
                    for p in patterns:
                        assert find_embedding(w, p) == least.get(p.letters), (w, p)

    def test_hand_checked_witnesses(self):
        # Hand-checked: a first letter with no completion is passed over,
        # and among the completions the earliest indices win.
        assert find_embedding(Word.parse("3132"), Pattern.parse("12")) == (1, 2)
        assert find_embedding(Word.parse("213132"), Pattern.parse("132")) == (1, 2, 5)
        assert find_embedding(Word.parse("4321"), Pattern.parse("1")) == (0,)
        assert find_embedding(Word.parse(""), Pattern.parse("")) == ()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(st.just(d), st.lists(st.integers(1, d), max_size=10))
        ),
        st.integers(1, 5).flatmap(
            lambda k: st.sampled_from(enumerate_preferential_arrangements(k))
        ),
    )
    def test_least_embedding_property(self, word_spec, pattern):
        d, letters = word_spec
        w = Word(tuple(letters), d)
        idxs = find_embedding(w, pattern)
        assert idxs == least_embeddings(w, len(pattern)).get(pattern.letters)
        assert contains_pattern(w, pattern) == (idxs is not None)


class TestArrangements:
    def test_length_two(self):
        assert [str(p) for p in enumerate_preferential_arrangements(2)] == ["11", "12", "21"]

    def test_length_three_matches_known_set(self):
        got = {str(p) for p in enumerate_preferential_arrangements(3)}
        assert got == {
            "111", "112", "121", "211", "122", "212", "221",
            "123", "132", "213", "231", "312", "321",
        }

    def test_lexicographic_and_distinct(self):
        for k in range(1, 6):
            pats = [p.letters for p in enumerate_preferential_arrangements(k)]
            assert pats == sorted(pats)
            assert len(set(pats)) == len(pats)

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541), (6, 4683)])
    def test_counts_match_fubini(self, k, count):
        assert fubini(k) == count
        if k <= 5:
            assert len(enumerate_preferential_arrangements(k)) == count
        else:
            with pytest.raises(ValueError, match=f"k={k} is over the cap of 5"):
                enumerate_preferential_arrangements(k)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_preferential_arrangements(9)
        with pytest.raises(ValueError):
            enumerate_preferential_arrangements(0)

    def test_size_cap_refuses_at_once(self):
        start = time.process_time()
        with pytest.raises(ValueError, match="over the cap of 5"):
            enumerate_preferential_arrangements(10_000)
        assert time.process_time() - start < 0.1

    def test_fubini_base_cases(self):
        assert fubini(0) == 1
        assert fubini(1) == 1


class TestRelabeling:
    def test_first_occurrence_renaming(self):
        assert str(relabel_canonical(Word.parse("2123212"))) == "1213121"
        assert str(relabel_canonical(Word.parse("333"))) == "111"
        assert str(relabel_canonical(Word.parse("1213121"))) == "1213121"

    def test_idempotent(self):
        for n in range(1, 6):
            for w in all_words(3, n):
                once = relabel_canonical(w)
                assert relabel_canonical(once) == once

    def test_classes_have_size_dividing_factorial(self):
        from collections import Counter

        sizes = Counter()
        for w in all_words(3, 5):
            sizes[relabel_canonical(w).letters] += 1
        for canonical, size in sizes.items():
            assert 6 % size == 0
            if len(set(canonical)) == 3:
                assert size == 6

    def test_isomorphic_iff_same_canonical(self):
        w1 = Word.parse("1213121")
        w2 = Word.parse("2123212")
        w3 = Word.parse("1213212")
        assert relabel_canonical(w1) == relabel_canonical(w2)
        assert relabel_canonical(w1) != relabel_canonical(w3)


class TestLetterPermutation:
    def test_superpattern_status_invariant_under_relabeling(self):
        # Over three letters and k = 3, permuting the letters keeps
        # superpattern status, though not which individual patterns are
        # contained (1123 under 1<->2 is a counterexample).  Permutations do not
        # keep status in general: for k = 2, swapping 2 and 3 takes the
        # superpattern 1132 to 1123, which is none (see
        # tests/test_classify.py::TestCanonicalListing).
        from itertools import permutations

        pats = enumerate_preferential_arrangements(3)

        def full(word):
            return all(contains_pattern(word, p) for p in pats)

        for text in ("1213121", "1232132", "12131211", "1231231"):
            w = Word.parse(text, alphabet_size=3)
            for images in permutations((1, 2, 3)):
                image = Word(tuple(images[v - 1] for v in w.letters), 3)
                assert full(image) == full(w)


# The package's eight immutable value types, each made twice from equal
# fields, with the repr the frozen dataclasses (and the two series classes)
# gave.  Polynomial, RationalFunction and a SimSummary, whose histogram is a
# dict, are unhashable.
VALUES = {
    "Word": (lambda: Word((1, 2, 1), 2), "Word(letters=(1, 2, 1), alphabet_size=2)", True),
    "Pattern": (lambda: Pattern((1, 2, 1)), "Pattern(letters=(1, 2, 1))", True),
    "ClassFlags": (
        lambda: ClassFlags(True, False, True, False),
        "ClassFlags(is_superpattern=True, is_minimal=False, is_strict=True, is_minimum=False)",
        True,
    ),
    "CountReport": (
        lambda: CountReport(7, 7, 7, 7, 42, 14, 11, 25),
        "CountReport(n=7, gamma_total=7, s_mu=7, s_a=7, s_total=42, beta_a=14, beta_b=11, beta_total=25)",
        True,
    ),
    "SequenceCheck": (
        lambda: SequenceCheck("A024012", 7, 7, 7),
        "SequenceCheck(label='A024012', n=7, computed=7, reference=7)",
        True,
    ),
    "SimSummary": (
        lambda: SimSummary(2, 2, 3, 5, 4.5, 0.25, {4: 1, 5: 2}),
        "SimSummary(d=2, k=2, trials=3, seed=5, sample_mean=4.5, sample_variance=0.25, histogram={4: 1, 5: 2})",
        False,
    ),
    "Polynomial": (lambda: Polynomial([1, 2]), "Polynomial([Fraction(1, 1), Fraction(2, 1)])", False),
    "RationalFunction": (
        lambda: RationalFunction(Polynomial([1]), Polynomial([1, -1])),
        "RationalFunction(Polynomial([Fraction(1, 1)]), Polynomial([Fraction(1, 1), Fraction(-1, 1)]))",
        False,
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueContract:
    def test_equal_fields_give_equal_values(self, name):
        make, _, hashable = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != object()
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    def test_repr_is_the_dataclass_form(self, name):
        make, shown, _ = VALUES[name]
        assert repr(make()) == shown

    def test_fields_refuse_assignment_and_deletion(self, name):
        value = VALUES[name][0]()
        for field in type(value).__slots__:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before

    def test_pickle_and_copy_round_trip(self, name):
        value = VALUES[name][0]()
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Word((1, 2), 0), ValueError, "alphabet_size must be at least 1"),
        (lambda: Word((1, 3), 2), ValueError, "letter 3 outside alphabet 1..2"),
        (lambda: Word(letters=(0,), alphabet_size=2), ValueError, "letter 0 outside alphabet 1..2"),
        (lambda: Pattern((1, 3, 1)), ValueError, "'131' is not dense-rank canonical"),
        (lambda: Pattern(letters=(13, 1)), ValueError, "'13,1' is not dense-rank canonical"),
        (lambda: Pattern((-1,)), ValueError, "'-1' is not dense-rank canonical"),
        (lambda: ClassFlags(True, False, True, True), ValueError, "minimum implies minimal and strict"),
        (lambda: ClassFlags(False, True, False, False), ValueError, "minimal/strict imply superpattern"),
        # Each CountReport below breaks the check its message names and every later one.
        (lambda: CountReport(7, 9, 7, 7, 41, 14, 11, 24), ValueError, "beta_total must equal beta_a + beta_b"),
        (lambda: CountReport(7, 8, 7, 7, 41, 14, 11, 25), ValueError, "s_total must equal 6 * s_a"),
        (lambda: CountReport(7, 8, 7, 7, 42, 14, 11, 25), ValueError, "gamma_total must equal 2^(n-2) - beta_total"),
        (lambda: RationalFunction(Polynomial([1]), Polynomial([0])), ZeroDivisionError, "zero denominator polynomial"),
    ],
)
def test_each_value_check_keeps_its_message(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message
