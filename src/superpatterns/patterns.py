"""Words over a finite alphabet and dense-rank pattern containment.

A word is a finite sequence of letters from {1, ..., d}.  Two sequences are
order-isomorphic when they compare the same position-by-position under dense
ranking: equal letters share a rank and the next larger letter takes the next
consecutive rank.  A pattern is a word that is a fixed point of dense ranking,
i.e. its letters are exactly {1, ..., m} for some m; such words are also
called preferential arrangements, and the number of them of length k is the
k-th ordered Bell number.

A word contains a pattern when some subsequence of the word is
order-isomorphic to it.  contains_pattern decides it on the containment
automaton (`automaton`), walking the pattern's own component alone.

MAX_PATTERN_LENGTH (5) is the one cap on pattern length: the enumerator and
contains_pattern check it first, and every automaton, query and search lists
its patterns before it walks anything, so each refuses a longer k at once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

from ._value import _Value
from .automaton import _ends

__all__ = [
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


def _letters_from_text(text: str) -> tuple[int, ...]:
    if "," in text:
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(
                f"malformed word {text!r}: expected comma-separated integers"
            ) from None
    elif text == "":
        letters = ()
    else:
        if not text.isdigit():
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

    def __init__(self, letters: tuple[int, ...], alphabet_size: int) -> None:
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

    Only for letters already known to lie in 1..alphabet_size: the listing
    walker's, whose letters are its automaton's moves over 1..d.  Writing
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

    def __init__(self, letters: tuple[int, ...]) -> None:
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
    return Word(tuple(map(rank.__getitem__, word.letters)), max(len(values), 1))


def contains_pattern(word: Word, pattern: Pattern) -> bool:
    """Whether some subsequence of the word is order-isomorphic to the pattern.

    The word, dense-ranked to its w distinct letters, walks the pattern's
    component of the shared (w, k) automaton until it reads "contained" or
    ends.  A word already over exactly 1..alphabet_size walks as it is, so a
    caller asking many patterns ranks it once, with _ranked.  The empty
    pattern is in every word, and the empty word contains no other.  Raises
    ValueError for a pattern longer than MAX_PATTERN_LENGTH, before any
    automaton is built, and BudgetExceededError when w**k passes the
    automaton's MAX_INSTANCES.

    >>> contains_pattern(Word.parse("5371473"), Pattern.parse("231"))
    True
    >>> contains_pattern(Word.parse("111111"), Pattern.parse("123"))
    False
    """
    k = len(pattern.letters)
    if k > MAX_PATTERN_LENGTH:
        enumerate_preferential_arrangements(k)  # raises, with the cap's one message
    if k == 0:
        return True
    if k > len(word.letters):
        return False
    word = _ranked(word)
    # Unpacked rather than read with next(), which would leave the walk
    # suspended, to be closed at twice the cost of running it out.
    (end,) = _ends(word.alphabet_size, k, word.letters, pattern)
    return end > 0


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
