from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from superpatterns import Word, get_automaton


def all_words(d: int, n: int) -> Iterator[Word]:
    """Every word of length n over {1..d}, in counter order."""
    for letters in product(range(1, d + 1), repeat=n):
        yield Word(letters, d)


def dfs_strict_counts(d: int, k: int, n_max: int) -> dict[int, int]:
    """Oracle for strict_counts_by_length: a depth-first search over every word
    whose proper prefixes are all non-superpatterns, one word at a time.  A
    child that turns accepting is a strict superpattern of its length; no
    strict word lies below it, so its subtree is skipped."""
    auto = get_automaton(d, k)
    counts = {n: 0 for n in range(1, n_max + 1)}
    stack = [(0, 0)]
    while stack:
        state, t = stack.pop()
        for a in range(1, d + 1):
            ns = auto.step(state, a)
            if auto.accepting[ns]:
                counts[t + 1] += 1
            elif t + 1 < n_max:
                stack.append((ns, t + 1))
    return counts


def flanking_pairs_by_scanning(word: Word) -> bool:
    """Oracle for has_flanking_pairs: the same conditions, checked by scanning
    the letters in Python loops."""
    letters = word.letters
    if any(v > 3 for v in letters):
        raise ValueError("has_flanking_pairs expects a word over {1,2,3}")

    def earliest_completion(j: int, k: int) -> Optional[int]:
        seen_j = False
        for idx, a in enumerate(letters):
            if a == j:
                seen_j = True
            elif a == k and seen_j:
                return idx
        return None

    def pair_after(j: int, k: int, start: int) -> bool:
        seen_j = False
        for idx in range(start + 1, len(letters)):
            a = letters[idx]
            if a == j:
                seen_j = True
            elif a == k and seen_j:
                return True
        return False

    for i in (1, 2, 3):
        occurrences = [idx for idx, a in enumerate(letters) if a == i]
        if not occurrences:
            return False
        first_i, last_i = occurrences[0], occurrences[-1]
        j, k = [v for v in (1, 2, 3) if v != i]
        for jj, kk in ((j, k), (k, j)):
            completion = earliest_completion(jj, kk)
            if completion is None or completion >= last_i:
                return False
            if not pair_after(jj, kk, first_i):
                return False
    return True
