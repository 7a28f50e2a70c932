"""Words over a finite alphabet and dense-rank pattern containment.

A word is a finite sequence of letters from {1, ..., d}.  Two sequences are
order-isomorphic when they compare the same position-by-position under dense
ranking: equal letters share a rank and the next larger letter takes the next
consecutive rank.  A pattern is a word that is a fixed point of dense ranking,
i.e. its letters are exactly {1, ..., m} for some m; such words are also
called preferential arrangements, and the number of them of length k is the
k-th ordered Bell number.

A word contains a pattern when some subsequence of the word is
order-isomorphic to it.  The containment queries (contains_pattern here,
missing_patterns and classify in `classify`) read the word, ranked to its w
distinct letters, once through a bit-parallel matcher (`_Matcher`) that
steps every pattern instance over 1..w in one integer, kept per (w, k) and
per (w, pattern).

This module owns the pattern set and its bounds.  MAX_PATTERN_LENGTH (5) is
the one cap on pattern length, which the enumerator checks first, and
MAX_INSTANCES the one cap on the d**k instances of every pattern of length
k.  `_capped_patterns` lists the patterns, refusing a longer k, before it
checks the cap on instances, and every matcher, automaton and search runs it
before it builds anything, so each refuses at once, in that order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, combinations, product
from operator import index
from typing import Iterable, Optional, Sequence

from ._value import _Value

__all__ = [
    "BudgetExceededError",
    "Word",
    "Pattern",
    "dense_rank",
    "contains_pattern",
    "enumerate_preferential_arrangements",
    "fubini",
    "relabel_canonical",
]

# Each automaton tracks all fubini(k) patterns at once: 541 at k = 5, 4683 at k = 6.
MAX_PATTERN_LENGTH = 5

# Most pattern instances (d**k) a matcher or automaton may track; each state
# step may touch all of them, and (10,5) alone has 100,000.
MAX_INSTANCES = 2**16


class BudgetExceededError(RuntimeError):
    """An enumeration would visit more words or states than its cap allows."""


def _letters_from_text(text: str) -> tuple[int, ...]:
    if "," in text:
        # A part is ASCII digits after at most one "-", which is refused
        # below; the rest of what int() reads ("+1", " 1", "1_0") is not.
        parts = text.split(",")
        if not all(part.isascii() and part.removeprefix("-").isdigit() for part in parts):
            raise ValueError(f"malformed word {text!r}: expected comma-separated integers")
        letters = tuple(map(int, parts))
    elif text == "":
        letters = ()
    else:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"malformed word {text!r}: expected digits or comma-separated integers")
        letters = tuple(int(ch) for ch in text)
    if any(v < 1 for v in letters):
        raise ValueError(f"malformed word {text!r}: letters must be positive")
    return letters


# Letter value v to the ASCII digit for v, for letters 0..9.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _letters_to_text(letters: Sequence[int], alphabet_size: int) -> str:
    # Digit string for d <= 9, formed in one step from the letters' bytes,
    # comma-separated beyond; the two forms round-trip through parse().
    if alphabet_size <= 9:
        return bytes(letters).translate(_DIGITS).decode()
    return ",".join(map(str, letters))


class Word(_Value):
    """A word over the alphabet {1, ..., alphabet_size}.

    >>> Word.parse("5371473").letters
    (5, 3, 7, 1, 4, 7, 3)
    >>> str(Word((1, 2, 1), 2))
    '121'
    """

    __slots__ = __match_args__ = ("letters", "alphabet_size")
    letters: tuple[int, ...]
    alphabet_size: int

    def __init__(self, letters: Iterable[int], alphabet_size: int) -> None:
        # operator.index refuses a non-integer letter or size with TypeError.
        letters = tuple(map(index, letters))
        alphabet_size = index(alphabet_size)
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        for v in letters:
            if not 1 <= v <= alphabet_size:
                raise ValueError(f"letter {v} outside alphabet 1..{alphabet_size}")
        _set_letters(self, letters)
        _set_alphabet_size(self, alphabet_size)

    @classmethod
    def parse(cls, text: str, alphabet_size: Optional[int] = None) -> "Word":
        """Build a word from its digit-string (d <= 9) or comma-separated form."""
        letters = _letters_from_text(text)
        if alphabet_size is None:
            alphabet_size = max(letters, default=1)
        return cls(letters, alphabet_size)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return _letters_to_text(self.letters, self.alphabet_size)

    def prefix(self, length: int) -> "Word":
        return Word(self.letters[:length], self.alphabet_size)


_new_word = object.__new__
_set_letters = Word.letters.__set__
_set_alphabet_size = Word.alphabet_size.__set__


def _unchecked_word(letters: tuple[int, ...], alphabet_size: int) -> Word:
    """A Word built without __init__'s letter checks, at about half the cost.

    Only for int letters already known to lie in 1..alphabet_size: the
    listing walker's, whose letters are its automaton's moves over 1..d, and
    `_ranked`'s, whose letters are ranks 1..w by construction.  Writing
    the two slots directly gives a value equal, in fields, hash and str, to
    Word(letters, alphabet_size).
    """
    word = _new_word(Word)
    _set_letters(word, letters)
    _set_alphabet_size(word, alphabet_size)
    return word


class Pattern(_Value):
    """A dense-rank canonical word: its letters are exactly {1, ..., m}.

    Construction rejects non-canonical sequences, so every Pattern in
    circulation satisfies dense_rank(p) == p.

    >>> Pattern.parse("121").letters
    (1, 2, 1)
    >>> Pattern.parse("131")
    Traceback (most recent call last):
        ...
    ValueError: '131' is not dense-rank canonical
    """

    __slots__ = __match_args__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int]) -> None:
        letters = tuple(map(index, letters))
        used = set(letters)
        if used and used != set(range(1, max(used) + 1)):
            # The text parse() reads back: digits, or commas past 9 (and for
            # a negative letter, which has no digit).
            text = _letters_to_text(letters, max(used) if min(used) >= 0 else 10)
            raise ValueError(f"{text!r} is not dense-rank canonical")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        return cls(_letters_from_text(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return _letters_to_text(self.letters, self.rank_count())

    def rank_count(self) -> int:
        """Number of distinct ranks used."""
        return max(self.letters, default=0)


def dense_rank(word: Word) -> Pattern:
    """The dense-rank image of a word: equal letters share a rank, the next
    larger letter takes the next consecutive rank.

    >>> str(dense_rank(Word.parse("571")))
    '231'
    >>> str(dense_rank(Word.parse("373")))
    '121'
    """
    return Pattern(_ranked(word).letters)


def _ranked(word: Word) -> Word:
    """The word's dense rank as a Word over its distinct letters (at least
    one); the word itself when its letters are already exactly
    1..alphabet_size."""
    values = set(word.letters)
    if len(values) == word.alphabet_size:
        return word
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    return _unchecked_word(tuple(map(rank.__getitem__, word.letters)), max(len(values), 1))


def contains_pattern(word: Word, pattern: Pattern) -> bool:
    """Whether some subsequence of the word is order-isomorphic to the pattern.

    The word, dense-ranked to its w distinct letters, is read once through
    the matcher of the pattern's instances over 1..w; a caller asking many
    patterns ranks it once, with _ranked.  The empty pattern is in every
    word, and the empty word contains no other.  Raises ValueError for a
    pattern longer than MAX_PATTERN_LENGTH, before any matcher is built, and
    BudgetExceededError when w**k passes MAX_INSTANCES.

    >>> contains_pattern(Word.parse("5371473"), Pattern.parse("231"))
    True
    >>> contains_pattern(Word.parse("111111"), Pattern.parse("123"))
    False
    """
    k = len(pattern.letters)
    if k == 0:
        return True
    word = _ranked(word)
    matcher = _matcher(word.alphabet_size, k, pattern.letters)
    return not matcher.missing(matcher.run(word.letters))


class _Matcher:
    """Shift-And matching (Baeza-Yates and Gonnet, CACM 35(10), 1992) of
    every instance of some length-k patterns over the letters 1..w at once.

    An instance maps a pattern's m ranks in order onto m of the w letters;
    its greedy progress 0..k is one bit, at level * width + place.  In each
    level a pattern's instances fill one field of whole bytes, topped by a
    guard bit.  masks[a] moves the instances whose next letter is a up one
    level.  The start state `low` sets level 0 but the guards; its padding
    bits never move.  Adding `low` to level k carries into a field's guard
    once an instance there is completed.  For k = 1 all letters share the
    one mask of a one-letter alphabet.  places holds the index of each
    pattern's guard byte, its field's top byte, in a missing() value written
    as width // 8 little-endian bytes.
    """

    __slots__ = ("masks", "width", "top", "low", "guards", "places", "bits")

    def __init__(self, w: int, k: int, patterns: Sequence[tuple[int, ...]]) -> None:
        letters = 1 if k == 1 else w
        # flags[m, r][a]: a field flagging the m-subsets with letter a + 1 at rank r.
        flags: dict[tuple[int, int], list[bytearray]] = {}
        for m in {max(p) for p in patterns}:
            subsets = list(combinations(range(letters), m))
            size = len(subsets) // 8 + 1  # the guard's bit included
            for r, column in enumerate(list(zip(*subsets)) or [()] * m, 1):
                rows = flags[m, r] = [bytearray(size) for _ in range(letters)]
                for i, a in enumerate(column):
                    rows[a][i >> 3] |= 1 << (i & 7)
        # Each level is the patterns' fields in order.
        sizes = [len(flags[max(p), 1][0]) for p in patterns]
        self.width = 8 * sum(sizes)
        self.top = k * self.width
        self.low = int.from_bytes(b"".join(b"\xff" * (n - 1) + b"\x7f" for n in sizes), "little")
        self.guards = int.from_bytes(b"".join(bytes(n - 1) + b"\x80" for n in sizes), "little")
        self.places = [end - 1 for end in accumulate(sizes)]
        columns = [flags[max(p), p[j]] for j in range(k) for p in patterns]
        masks = [int.from_bytes(b"".join(rows[a] for rows in columns), "little") for a in range(letters)]
        self.masks = [0, *masks] if k > 1 else [0] + masks * w
        self.bits = letters * self.top + 64 * len(self.masks)  # the list's pointers too

    def run(self, letters: Iterable[int], state: Optional[int] = None) -> int:
        """The state after reading the letters, from the start or from state."""
        masks, width = self.masks, self.width
        s = self.low if state is None else state
        for a in letters:
            moved = s & masks[a]
            s = s ^ moved | moved << width
        return s

    def missing(self, state: int) -> int:
        """The guards of the patterns the state has not completed."""
        return ((state >> self.top) + self.low & self.guards) ^ self.guards


# Most mask bits the kept matchers hold: 8 MiB, past the largest matcher,
# (256, 2)'s 33,583,168 bits.  They are kept oldest first, by (w, k) for
# every length-k pattern and by (w, pattern letters) for one.
_MATCHER_BITS = 2**26
_matchers: dict[tuple[int, object], _Matcher] = {}


def _matcher(w: int, k: int, pattern: Optional[tuple[int, ...]] = None) -> _Matcher:
    """The matcher over 1..w for every length-k pattern, in lexicographic
    order, or for the one pattern given, built after the refusals of
    _capped_patterns; the oldest kept make room for it."""
    key = (w, k if pattern is None else pattern)
    matcher = _matchers.get(key)
    if matcher is None:
        patterns = _capped_patterns(w, k)
        matcher = _Matcher(w, k, [p.letters for p in patterns] if pattern is None else [pattern])
        held = sum(kept.bits for kept in _matchers.values())
        while _matchers and held + matcher.bits > _MATCHER_BITS:
            held -= _matchers.pop(next(iter(_matchers))).bits
        _matchers[key] = matcher
    return matcher


def fubini(k: int) -> int:
    """Ordered Bell number: preferential arrangements of length k.

    >>> [fubini(k) for k in range(6)]
    [1, 1, 3, 13, 75, 541]
    """
    if k < 0:
        raise ValueError("fubini is defined for k >= 0")
    counts = [1]
    for m in range(1, k + 1):
        counts.append(sum(math.comb(m, j) * counts[m - j] for j in range(1, m + 1)))
    return counts[k]


@lru_cache(maxsize=None)
def _arrangements(k: int) -> tuple[Pattern, ...]:
    # The tuples over 1..k whose letters are exactly 1..max, in lexicographic order.
    return tuple(Pattern(t) for t in product(range(1, k + 1), repeat=k) if len(set(t)) == max(t))


def enumerate_preferential_arrangements(k: int) -> list[Pattern]:
    """All canonical patterns of length k, in lexicographic order.

    >>> [str(p) for p in enumerate_preferential_arrangements(2)]
    ['11', '12', '21']
    """
    if k < 1:
        raise ValueError("pattern length must be at least 1")
    if k > MAX_PATTERN_LENGTH:
        raise ValueError(
            f"pattern length k={k} is over the cap of {MAX_PATTERN_LENGTH}"
            f" (fubini({MAX_PATTERN_LENGTH}) = {fubini(MAX_PATTERN_LENGTH)} patterns)"
        )
    return list(_arrangements(k))


def _capped_patterns(d: int, k: int) -> tuple[Pattern, ...]:
    """The canonical length-k patterns, after the two refusals in their
    order: ValueError for k past MAX_PATTERN_LENGTH, from listing the
    patterns, then BudgetExceededError for d**k past MAX_INSTANCES."""
    patterns = tuple(enumerate_preferential_arrangements(k))
    if d**k > MAX_INSTANCES:
        raise BudgetExceededError(f"k={k}, d={d} has d**k pattern instances, over the cap of {MAX_INSTANCES}")
    return patterns


def relabel_canonical(word: Word) -> Word:
    """Rename letters so first occurrences appear in increasing order.

    Two words are letter-isomorphic exactly when their canonical forms are
    equal.  The repetition structure is preserved; unlike dense_rank, the
    relative order of letter values is not.

    >>> str(relabel_canonical(Word.parse("2123212")))
    '1213121'
    """
    if not word.letters:
        raise ValueError("relabel_canonical requires a non-empty word")
    return Word(_relabel_tuple(word.letters), word.alphabet_size)


def _relabel_tuple(letters: Sequence[int]) -> tuple[int, ...]:
    renaming: dict[int, int] = {}
    for v in letters:
        if v not in renaming:
            renaming[v] = len(renaming) + 1
    return tuple(renaming[v] for v in letters)
