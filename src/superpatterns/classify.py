"""Superpattern classification, exhaustive enumeration, and counting formulas.

A word is a k-superpattern when it contains every canonical pattern of length
k.  Refinements, for a word w of length n:

* minimal    -- superpattern with no two equal adjacent letters;
* strict     -- superpattern whose length-(n-1) prefix is not a superpattern,
                i.e. the last letter is needed (the waiting time hits n here);
* minimum    -- minimal superpattern whose length is the least possible for
                its (k, alphabet) combination.

The exhaustive routes iterate the word space in base-d counter order, carrying
containment state through the shared automaton and skipping subtrees whose
prefix is already a superpattern (no strict word can occur below one).  The
closed-form counts they are checked against live in count_formulas().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional

from .automaton import get_automaton
from .patterns import (
    Pattern,
    Word,
    _occurrences,
    _relabel_tuple,
    contains_pattern,
    enumerate_preferential_arrangements,
)

__all__ = [
    "BudgetExceededError",
    "SuperpatternNotFoundError",
    "ClassFlags",
    "CountReport",
    "COUNT_REPORT_HEADER",
    "is_superpattern",
    "missing_patterns",
    "classify",
    "min_superpattern_length",
    "strict_counts_by_length",
    "count_strict_superpatterns",
    "iter_strict_superpatterns",
    "iter_superpatterns",
    "enumerate_minimal_upto_iso",
    "iter_minimal_upto_iso",
    "count_minimal_upto_iso",
    "enumerate_strict_minimal_upto_iso",
    "iter_strict_minimal_upto_iso",
    "count_strict_minimal_upto_iso",
    "isomorphism_orbit",
    "count_formulas",
    "count_beta_bruteforce",
    "letter_multiplicities",
    "has_flanking_pairs",
    "ends_with_minimum_superpattern",
    "minimum_superpatterns_ternary",
    "QUATERNARY_EXAMPLE",
    "verify_quaternary_counterexample",
    "effective_budget",
]


class BudgetExceededError(RuntimeError):
    """An enumeration would visit more words/states than the configured cap."""


class SuperpatternNotFoundError(RuntimeError):
    """No superpattern exists within the searched length range."""


# Word-space caps for the exhaustive scans (d**n must stay at or below these);
# they keep default runs in the minutes range.  Callers may pass an explicit
# budget, and the CLI also honours the SUPERPATTERN_BUDGET environment
# variable.
DEFAULT_WORD_BUDGETS = {2: 2**24, 3: 3**14}
FALLBACK_WORD_BUDGET = 5_000_000

# Classification is only meaningful for small k: fubini(6) is already 4683
# patterns per containment check.
MAX_CLASSIFY_K = 5


def effective_budget(d: int, budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    return DEFAULT_WORD_BUDGETS.get(d, FALLBACK_WORD_BUDGET)


def _require_within_budget(space: int, d: int, budget: Optional[int], what: str) -> None:
    cap = effective_budget(d, budget)
    if space > cap:
        raise BudgetExceededError(f"{what} would cover {space} words, over the cap of {cap}")


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_CLASSIFY_K:
        raise ValueError(f"pattern length k must be in 1..{MAX_CLASSIFY_K}, got {k}")


@dataclass(frozen=True, slots=True)
class ClassFlags:
    """Classification record for one word at one pattern length."""

    is_superpattern: bool
    is_minimal: bool
    is_strict: bool
    is_minimum: bool

    def __post_init__(self) -> None:
        if self.is_minimum and not (self.is_minimal and self.is_strict):
            raise ValueError("minimum implies minimal and strict")
        if (self.is_minimal or self.is_strict) and not self.is_superpattern:
            raise ValueError("minimal/strict imply superpattern")


COUNT_REPORT_HEADER = "n,gamma_total,s_mu,s_a,s_total,beta_a,beta_b,beta_total"


@dataclass(frozen=True, slots=True)
class CountReport:
    """Closed-form counts for ternary superpatterns of one length n >= 7.

    gamma_total -- minimal superpatterns up to letter isomorphism
    s_mu        -- strict minimal superpatterns up to isomorphism
    s_a         -- strict superpatterns, repeats allowed, up to isomorphism
    s_total     -- all strict superpatterns (6 isomorphic copies each)
    beta_a/b    -- alternating candidate words failing to become superpatterns,
                   split by whether their third letter repeats the first
    """

    n: int
    gamma_total: int
    s_mu: int
    s_a: int
    s_total: int
    beta_a: int
    beta_b: int
    beta_total: int

    def __post_init__(self) -> None:
        if self.beta_total != self.beta_a + self.beta_b:
            raise ValueError("beta_total must equal beta_a + beta_b")
        if self.s_total != 6 * self.s_a:
            raise ValueError("s_total must equal 6 * s_a")
        if self.n >= 7 and self.gamma_total != 2 ** (self.n - 2) - self.beta_total:
            raise ValueError("gamma_total must equal 2^(n-2) - beta_total")

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.gamma_total},{self.s_mu},{self.s_a},"
            f"{self.s_total},{self.beta_a},{self.beta_b},{self.beta_total}"
        )


# Each query below builds the word's next-occurrence table once and shares it
# across all patterns; a slice of it serves for a prefix of the word.


def _contains_all(word: Word, k: int, table: list[dict[int, int]]) -> bool:
    return all(contains_pattern(word, p, table) for p in enumerate_preferential_arrangements(k))


def is_superpattern(word: Word, k: int) -> bool:
    """Whether the word contains every canonical pattern of length k."""
    _check_k(k)
    return _contains_all(word, k, _occurrences(word.letters))


def missing_patterns(word: Word, k: int) -> list[Pattern]:
    """The canonical length-k patterns the word does not contain, in
    lexicographic order; empty exactly when the word is a superpattern."""
    _check_k(k)
    table = _occurrences(word.letters)
    return [p for p in enumerate_preferential_arrangements(k) if not contains_pattern(word, p, table)]


def classify(word: Word, k: int) -> ClassFlags:
    """Full classification of a word: superpattern / minimal / strict / minimum."""
    _check_k(k)
    table = _occurrences(word.letters)
    if not _contains_all(word, k, table):
        return ClassFlags(False, False, False, False)
    letters = word.letters
    minimal = all(letters[i] != letters[i + 1] for i in range(len(letters) - 1))
    strict = not _contains_all(word, k, table[:-1])
    minimum = False
    if minimal:
        n = len(word)
        bound = _min_length_upper_bound(k, word.alphabet_size)
        if bound is None or n <= bound:
            # The word itself is a superpattern, so the search below length n
            # always resolves.
            minimum = min_superpattern_length(k, word.alphabet_size, n_max=n) == n
    return ClassFlags(True, minimal, strict, minimum)


def _min_length_upper_bound(k: int, d: int) -> Optional[int]:
    """Known upper bound on the least superpattern length, when one exists.

    For d >= k the bound for alphabet size k applies verbatim, since patterns
    of length k never use more than k distinct values.  For k > d no
    superpattern exists at all (permutation patterns need k distinct letters).
    """
    if k == 1:
        return 1
    if d >= k:
        if k == 2:
            return 3
        return k * k - 2 * k + 4
    return None


_min_length_cache: dict[tuple[int, int], int] = {}


def min_superpattern_length(
    k: int,
    d: int,
    n_max: Optional[int] = None,
    *,
    state_budget: int = 500_000,
) -> int:
    """Least n such that some word of length n over {1..d} is a k-superpattern.

    Breadth-first reachability over the containment automaton: the first depth
    at which an accepting state appears is exactly the least superpattern
    length, and full closure without acceptance proves none exists.  Raises
    SuperpatternNotFoundError when nothing is found up to n_max, and
    BudgetExceededError if the state space outgrows state_budget.
    """
    _check_k(k)
    if d < 1:
        raise ValueError("alphabet size must be at least 1")
    if n_max is None:
        n_max = _min_length_upper_bound(k, d)
        if n_max is None:
            raise SuperpatternNotFoundError(
                f"no superpattern over a {d}-letter alphabet can contain all"
                f" length-{k} patterns"
            )
    cached = _min_length_cache.get((k, d))
    if cached is not None:
        if cached <= n_max:
            return cached
        raise SuperpatternNotFoundError(
            f"least superpattern length for k={k}, d={d} is {cached} > n_max={n_max}"
        )
    auto = get_automaton(d, k)
    frontier = [0]
    seen = {0}
    for depth in range(1, n_max + 1):
        next_frontier = []
        for state in frontier:
            for a in range(1, d + 1):
                t = auto.step(state, a)
                if auto.accepting[t]:
                    _min_length_cache[(k, d)] = depth
                    return depth
                if t not in seen:
                    seen.add(t)
                    next_frontier.append(t)
        if len(seen) > state_budget:
            raise BudgetExceededError(
                f"minimum-length search for k={k}, d={d} exceeded {state_budget} states"
            )
        if not next_frontier:
            raise SuperpatternNotFoundError(
                f"no superpattern over a {d}-letter alphabet can contain all"
                f" length-{k} patterns"
            )
        frontier = next_frontier
    raise SuperpatternNotFoundError(f"no k={k} superpattern of length <= {n_max} over d={d}")


# --- exhaustive scans over the full word space -------------------------------

_scan_cache: dict[tuple[int, int], tuple[int, dict[int, int]]] = {}


def strict_counts_by_length(
    d: int, k: int, n_max: int, budget: Optional[int] = None
) -> dict[int, int]:
    """Exact number of strict k-superpatterns of each length 1..n_max over {1..d}.

    One depth-first pass in counter order visits every word whose proper
    prefixes are all non-superpatterns; a child that turns accepting is a word
    whose last letter completed the final pattern, i.e. a strict superpattern
    of that length.  Subtrees under an accepting node are skipped: none of
    their words can be strict.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _require_within_budget(d**n_max, d, budget, f"strict-superpattern scan to n={n_max}")
    cached = _scan_cache.get((d, k))
    if cached is not None and cached[0] >= n_max:
        return {n: cached[1].get(n, 0) for n in range(1, n_max + 1)}

    auto = get_automaton(d, k)
    counts = {n: 0 for n in range(1, n_max + 1)}
    step = auto.step
    transitions = auto.transitions
    accepting = auto.accepting
    letters = range(1, d + 1)
    stack = [(0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        state, t = pop()
        t1 = t + 1
        row = transitions[state]
        for a in letters:
            ns = row[a]
            if ns < 0:
                ns = step(state, a)
            if accepting[ns]:
                counts[t1] += 1
            elif t1 < n_max:
                push((ns, t1))
    _scan_cache[(d, k)] = (n_max, counts)
    return dict(counts)


def count_strict_superpatterns(d: int, k: int, n: int, budget: Optional[int] = None) -> int:
    """Exact count of words of length n over {1..d} whose waiting time is n."""
    return strict_counts_by_length(d, k, n, budget)[n]


def iter_strict_superpatterns(
    d: int, k: int, n: int, budget: Optional[int] = None
) -> Iterator[Word]:
    """Stream the strict k-superpatterns of length n in lexicographic order."""
    _require_within_budget(d**n, d, budget, f"strict-superpattern listing at n={n}")
    auto = get_automaton(d, k)
    word: list[int] = []

    def walk(state: int) -> Iterator[Word]:
        t1 = len(word) + 1
        for a in range(1, d + 1):
            ns = auto.step(state, a)
            if auto.accepting[ns]:
                if t1 == n:
                    word.append(a)
                    yield Word(tuple(word), d)
                    word.pop()
            elif t1 < n:
                word.append(a)
                yield from walk(ns)
                word.pop()

    yield from walk(0)


def iter_superpatterns(
    d: int, k: int, n: int, *, canonical: bool = False, budget: Optional[int] = None
) -> Iterator[Word]:
    """Stream every k-superpattern of length n (strict or not), lexicographic.

    With canonical=True only words in first-occurrence canonical form are
    produced, one representative per letter-isomorphism class.
    """
    _require_within_budget(d**n, d, budget, f"superpattern listing at n={n}")
    auto = get_automaton(d, k)
    word: list[int] = []

    def walk(state: int, max_used: int) -> Iterator[Word]:
        if len(word) == n:
            if auto.accepting[state]:
                yield Word(tuple(word), d)
            return
        top = min(d, max_used + 1) if canonical else d
        for a in range(1, top + 1):
            word.append(a)
            yield from walk(auto.step(state, a), max(max_used, a))
            word.pop()

    yield from walk(0, 0)


# --- the alternating (minimal) word space, first two letters fixed as 1,2 ----


def _alternating_budget_check(n: int, budget: Optional[int], what: str) -> None:
    if n < 3:
        raise ValueError("alternating enumeration needs n >= 3")
    # The space has 2^(n-2) words; reuse the binary word budget for its cap.
    _require_within_budget(2 ** (n - 2), 2, budget, what)


def iter_minimal_upto_iso(n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the minimal 3-superpatterns of length n starting 1,2 (one per
    isomorphism class), in lexicographic order."""
    _alternating_budget_check(n, budget, f"minimal-superpattern listing at n={n}")
    auto = get_automaton(3, 3)
    word = [1, 2]

    def walk(state: int) -> Iterator[Word]:
        if len(word) == n:
            if auto.accepting[state]:
                yield Word(tuple(word), 3)
            return
        last = word[-1]
        for a in (1, 2, 3):
            if a == last:
                continue
            word.append(a)
            yield from walk(auto.step(state, a))
            word.pop()

    yield from walk(auto.scan((1, 2)))


def count_minimal_upto_iso(n: int, budget: Optional[int] = None) -> int:
    """Count of iter_minimal_upto_iso(n) without materialising the words.

    Once a prefix is accepting every alternating extension stays a
    superpattern, so an accepting node at depth t contributes 2^(n-t) leaves.
    """
    _alternating_budget_check(n, budget, f"minimal-superpattern count at n={n}")
    auto = get_automaton(3, 3)

    def tally(state: int, last: int, t: int) -> int:
        if auto.accepting[state]:
            return 2 ** (n - t)
        if t == n:
            return 0
        return sum(tally(auto.step(state, a), a, t + 1) for a in (1, 2, 3) if a != last)

    return tally(auto.scan((1, 2)), 2, 2)


def iter_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the strict minimal 3-superpatterns of length n starting 1,2."""
    _alternating_budget_check(n, budget, f"strict-minimal listing at n={n}")
    auto = get_automaton(3, 3)
    word = [1, 2]

    def walk(state: int) -> Iterator[Word]:
        t1 = len(word) + 1
        last = word[-1]
        for a in (1, 2, 3):
            if a == last:
                continue
            ns = auto.step(state, a)
            if auto.accepting[ns]:
                if t1 == n:
                    word.append(a)
                    yield Word(tuple(word), 3)
                    word.pop()
            elif t1 < n:
                word.append(a)
                yield from walk(ns)
                word.pop()

    yield from walk(auto.scan((1, 2)))


def count_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> int:
    _alternating_budget_check(n, budget, f"strict-minimal count at n={n}")
    return sum(1 for _ in iter_strict_minimal_upto_iso(n, budget))


def enumerate_minimal_upto_iso(n: int, budget: Optional[int] = None) -> list[Word]:
    return list(iter_minimal_upto_iso(n, budget))


def enumerate_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> list[Word]:
    return list(iter_strict_minimal_upto_iso(n, budget))


def isomorphism_orbit(words: Iterable[Word]) -> list[Word]:
    """All distinct letter-isomorphic images of the given words, sorted."""
    seen: set[tuple[int, ...]] = set()
    out: list[Word] = []
    for w in words:
        for images in permutations(range(1, w.alphabet_size + 1)):
            relabeled = tuple(images[v - 1] for v in w.letters)
            if relabeled not in seen:
                seen.add(relabeled)
                out.append(Word(relabeled, w.alphabet_size))
    out.sort(key=lambda w: w.letters)
    return out


# --- closed-form counts ------------------------------------------------------


def count_formulas(n: int) -> CountReport:
    """Closed-form ternary superpattern counts at length n (defined for n >= 7)."""
    if n < 7:
        raise ValueError("the counting formulas hold for n >= 7")
    s_a = sum(((m - 4) ** 2 - 2) * math.comb(n - 2, m - 2) for m in range(7, n + 1))
    beta_a = n * n - 7 * n + 14
    beta_b = 3 * n - 10
    return CountReport(
        n=n,
        gamma_total=2 ** (n - 2) - (n - 2) ** 2,
        s_mu=(n - 4) ** 2 - 2,
        s_a=s_a,
        s_total=6 * s_a,
        beta_a=beta_a,
        beta_b=beta_b,
        beta_total=beta_a + beta_b,
    )


def count_beta_bruteforce(n: int, budget: Optional[int] = None) -> tuple[int, int]:
    """Among the 2^(n-2) alternating words starting 1,2, count those that fail
    to become 3-superpatterns, split by the third letter: (third letter 1,
    third letter 3).  The two counts match n^2-7n+14 and 3n-10 for n >= 7.
    """
    _alternating_budget_check(n, budget, f"failing-word count at n={n}")
    auto = get_automaton(3, 3)

    def failures(state: int, last: int, t: int) -> int:
        if t == n:
            return 1
        total = 0
        for a in (1, 2, 3):
            if a == last:
                continue
            ns = auto.step(state, a)
            if not auto.accepting[ns]:  # accepting subtrees contain no failures
                total += failures(ns, a, t + 1)
        return total

    state12 = auto.scan((1, 2))
    out = []
    for third in (1, 3):
        ns = auto.step(state12, third)
        out.append(0 if auto.accepting[ns] else failures(ns, third, 3))
    return out[0], out[1]


def letter_multiplicities(word: Word) -> tuple[int, int, int]:
    """Occurrence counts of the three letters, sorted descending."""
    if any(v > 3 for v in word.letters):
        raise ValueError("letter_multiplicities expects a word over {1,2,3}")
    counts = [word.letters.count(v) for v in (1, 2, 3)]
    counts.sort(reverse=True)
    return counts[0], counts[1], counts[2]


# --- structural checks -------------------------------------------------------


def has_flanking_pairs(word: Word) -> bool:
    """Necessary condition for a ternary superpattern: for every choice of
    distinct letters i, j, k there is an occurrence of i preceded by a
    j-then-k subsequence, one followed by j-then-k, and likewise for k-then-j
    (four separate occurrences of i are allowed).
    """
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


@lru_cache(maxsize=1)
def minimum_superpatterns_ternary() -> tuple[Word, ...]:
    """The seven minimum 3-superpatterns (length 7, canonical form)."""
    return tuple(iter_strict_minimal_upto_iso(7))


def ends_with_minimum_superpattern(word: Word) -> bool:
    """Whether a strict minimal 3-superpattern embeds a minimum superpattern
    whose last letter lands on the word's last letter.

    Raises ValueError when the input is not a strict minimal superpattern.
    """
    flags = classify(word, 3)
    if not (flags.is_strict and flags.is_minimal):
        raise ValueError("expects a strict minimal superpattern for k=3")
    targets = {w.letters for w in minimum_superpatterns_ternary()}
    letters = word.letters
    n = len(letters)
    for combo in combinations(range(n - 1), 6):
        sub = tuple(letters[i] for i in combo) + (letters[-1],)
        if _relabel_tuple(sub) in targets:
            return True
    return False


# --- the quaternary counterexample word --------------------------------------

# Two copies of the minimum superpattern 1213121 separated by a single 4.
QUATERNARY_EXAMPLE = Word.parse("121312141213121", alphabet_size=4)


def _every_letter_necessary(word: Word, k: int) -> bool:
    """Superpattern in which deleting any single letter breaks containment."""
    if not is_superpattern(word, k):
        return False
    letters = word.letters
    for i in range(len(letters)):
        if is_superpattern(Word(letters[:i] + letters[i + 1 :], word.alphabet_size), k):
            return False
    return True


def verify_quaternary_counterexample() -> bool:
    """The 15-letter word 121312141213121 is a strict superpattern for
    length-4 patterns over {1,2,3,4}, yet none of its C(15,12) = 455
    length-12 subsequences is a superpattern with every letter necessary.

    So strictness does not force an embedded minimum-length superpattern once
    the alphabet grows past three letters.
    """
    w = QUATERNARY_EXAMPLE
    if not is_superpattern(w, 4):
        return False
    if is_superpattern(w.prefix(len(w) - 1), 4):
        return False
    for idxs in combinations(range(len(w)), 12):
        candidate = Word(tuple(w.letters[i] for i in idxs), 4)
        if _every_letter_necessary(candidate, 4):
            return False
    return True
