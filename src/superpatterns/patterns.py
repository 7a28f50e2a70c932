"""Words over a finite alphabet and dense-rank pattern containment.

A word is a finite sequence of letters from {1, ..., d}.  Two sequences are
order-isomorphic when they compare the same position-by-position under dense
ranking: equal letters share a rank and the next larger letter takes the next
consecutive rank.  A pattern is a word that is a fixed point of dense ranking,
i.e. its letters are exactly {1, ..., m} for some m; such words are also
called preferential arrangements, and the number of them of length k is the
k-th ordered Bell number.

A word contains a pattern when some subsequence of the word is
order-isomorphic to it.  Containment is decided by a backtracking search
that returns the lexicographically least embedding.  It reads the word
through a next-occurrence table, built once per word and shared across
patterns, and tries each distinct letter value once per pattern position.
It follows the pattern's search plan, built once with the Pattern: for each
position, its rank, whether an earlier position already fixed that rank's
value, and otherwise the nearest fixed ranks below and above, whose values
bound the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

__all__ = [
    "Word",
    "Pattern",
    "dense_rank",
    "contains_pattern",
    "find_embedding",
    "enumerate_preferential_arrangements",
    "fubini",
    "relabel_canonical",
]

# enumerate_preferential_arrangements(k) has fubini(k) results (541 at k=5,
# 545835 at k=8); refuse anything larger.
MAX_PATTERN_LENGTH = 8


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


def _letters_to_text(letters: Sequence[int], alphabet_size: int) -> str:
    # Digit string for d <= 9, comma-separated beyond; the two forms round-trip
    # through parse().
    if alphabet_size <= 9:
        return "".join(str(v) for v in letters)
    return ",".join(str(v) for v in letters)


@dataclass(frozen=True, slots=True)
class Word:
    """A word over the alphabet {1, ..., alphabet_size}.

    >>> Word.parse("5371473").letters
    (5, 3, 7, 1, 4, 7, 3)
    >>> str(Word((1, 2, 1), 2))
    '121'
    """

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        for v in self.letters:
            if not 1 <= v <= self.alphabet_size:
                raise ValueError(f"letter {v} outside alphabet 1..{self.alphabet_size}")

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


@dataclass(frozen=True, slots=True)
class Pattern:
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

    letters: tuple[int, ...]
    # The containment search's plan, derived from the letters (see _plan).
    plan: tuple[tuple[int, bool, int, int], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        used = set(self.letters)
        if used and used != set(range(1, max(used) + 1)):
            text = "".join(str(v) for v in self.letters)
            raise ValueError(f"{text!r} is not dense-rank canonical")
        object.__setattr__(self, "plan", _plan(self.letters))

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        return cls(_letters_from_text(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(v) for v in self.letters) if self.letters else ""

    def rank_count(self) -> int:
        """Number of distinct ranks used."""
        return max(self.letters, default=0)


def _plan(letters: Sequence[int]) -> tuple[tuple[int, bool, int, int], ...]:
    """One (rank, fixed, below, above) record per pattern position: fixed
    says an earlier position has the same rank, and below and above are the
    nearest ranks under and over it that earlier positions have, with
    sentinels 0 and m + 1 for m ranks.  The search reads below and above only
    for a rank that is not fixed.

    >>> _plan((2, 1, 2, 3))
    ((2, False, 0, 4), (1, False, 0, 2), (2, True, 1, 4), (3, False, 2, 4))
    """
    top = max(letters, default=0) + 1
    fixed: set[int] = set()
    plan = []
    for r in letters:
        below = max((s for s in fixed if s < r), default=0)
        above = min((s for s in fixed if s > r), default=top)
        plan.append((r, r in fixed, below, above))
        fixed.add(r)
    return tuple(plan)


def dense_rank(word: Word) -> Pattern:
    """The dense-rank image of a word: equal letters share a rank, the next
    larger letter takes the next consecutive rank.

    >>> str(dense_rank(Word.parse("571")))
    '231'
    >>> str(dense_rank(Word.parse("373")))
    '121'
    """
    rank = {v: i + 1 for i, v in enumerate(sorted(set(word.letters)))}
    return Pattern(tuple(rank[v] for v in word.letters))


def _occurrences(letters: Sequence[int]) -> list[dict[int, int]]:
    """Next-occurrence table of a word: entry i maps each distinct value in
    letters[i:] to its first index at or after i, with the values in order of
    those indices.  O(n*w) for n letters and w distinct values.

    A search bounded to the table's own length reads a slice table[:m] as the
    table of the length-m prefix; indices at or past m are never used.
    """
    table: list[dict[int, int]] = [{}] * len(letters)
    following: dict[int, int] = {}
    for i in range(len(letters) - 1, -1, -1):
        v = letters[i]
        row = {v: i, **following}
        row[v] = i
        table[i] = following = row
    return table


def _find_embedding(
    table: Sequence[dict[int, int]], pattern: Pattern
) -> Optional[tuple[int, ...]]:
    """Backtracking search over the pattern's positions for the
    lexicographically least embedding (0-based indices) into the word the
    table describes, or None.

    Each position tries each distinct letter value once, at its leftmost
    occurrence after the previous pick: a later occurrence of the same value
    leaves a subset of the same continuations.  The pattern's plan says, per
    position, whether its rank already has a value, which is then the one
    candidate, or else which fixed ranks bound it: as values increase with
    rank, a free rank takes the values strictly between those of the nearest
    fixed ranks below and above it.  Candidates come in index order, so the
    first witness is the one a plain index-by-index search would find.
    """
    n = len(table)
    plan = pattern.plan
    k = len(plan)
    if k > n:
        return None
    if k == 0:
        return ()
    # value[r] is the letter value given to rank r; the sentinels value[0] = 0
    # and value[m + 1] = inf bound ranks with no fixed neighbour.  A free
    # rank's stale value is never read before it is set again.
    value: list[float] = [0] * (max(pattern.letters) + 1) + [math.inf]
    picked = [0] * k
    slack = n - k  # position pos may use indices up to slack + pos

    def extend(start: int, pos: int) -> bool:
        r, fixed, below, above = plan[pos]
        last = slack + pos
        nxt = pos + 1
        if fixed:
            i = table[start].get(value[r], n)
            if i > last:
                return False
            picked[pos] = i
            return nxt == k or extend(i + 1, nxt)
        lo = value[below]
        hi = value[above]
        for v, i in table[start].items():
            if i > last:
                break
            if lo < v < hi:
                value[r] = v
                picked[pos] = i
                if nxt == k or extend(i + 1, nxt):
                    return True
        return False

    return tuple(picked) if extend(0, 0) else None


def find_embedding(word: Word, pattern: Pattern) -> Optional[tuple[int, ...]]:
    """The lexicographically least embedding of the pattern into the word, as
    a strictly increasing tuple of 0-based indices whose subsequence
    dense-ranks to the pattern; None when the word does not contain the
    pattern.
    """
    return _find_embedding(_occurrences(word.letters), pattern)


def contains_pattern(
    word: Word, pattern: Pattern, table: Optional[Sequence[dict[int, int]]] = None
) -> bool:
    """Whether some subsequence of the word is order-isomorphic to the pattern.

    Callers testing many patterns against one word pass its next-occurrence
    table (``_occurrences(word.letters)``), built once; a slice table[:m]
    restricts the search to the word's length-m prefix.

    >>> contains_pattern(Word.parse("5371473"), Pattern.parse("231"))
    True
    >>> contains_pattern(Word.parse("111111"), Pattern.parse("123"))
    False
    """
    if table is None:
        table = _occurrences(word.letters)
    return _find_embedding(table, pattern) is not None


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


def _grow_arrangements(
    prefix: list[int], max_used: int, missing: set[int], k: int, out: list[tuple[int, ...]]
) -> None:
    # missing holds the values in 1..max_used not yet used; a leaf is canonical
    # exactly when it is empty.
    if len(prefix) == k:
        if not missing:
            out.append(tuple(prefix))
        return
    remaining = k - len(prefix) - 1
    for v in range(1, k + 1):
        if v <= max_used:
            was_missing = v in missing
            if len(missing) - was_missing > remaining:
                continue
            if was_missing:
                missing.discard(v)
            prefix.append(v)
            _grow_arrangements(prefix, max_used, missing, k, out)
            prefix.pop()
            if was_missing:
                missing.add(v)
        else:
            # Jumping to v opens the gap max_used+1..v-1, which the remaining
            # positions must still be able to fill; larger v only widens it.
            opened = set(range(max_used + 1, v))
            if len(missing) + len(opened) > remaining:
                break
            missing |= opened
            prefix.append(v)
            _grow_arrangements(prefix, v, missing, k, out)
            prefix.pop()
            missing -= opened


@lru_cache(maxsize=None)
def _arrangements(k: int) -> tuple[Pattern, ...]:
    out: list[tuple[int, ...]] = []
    _grow_arrangements([], 0, set(), k, out)
    return tuple(Pattern(t) for t in out)


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
