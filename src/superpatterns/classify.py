"""Superpattern classification, exhaustive enumeration, and counting formulas.

A word is a k-superpattern when it contains every canonical pattern of length
k.  Refinements, for a word w of length n:

* minimal    -- superpattern with no two equal adjacent letters;
* strict     -- superpattern whose length-(n-1) prefix is not a superpattern,
                i.e. the last letter is needed (the waiting time hits n here);
* minimum    -- minimal superpattern whose length is the least possible for
                its (k, alphabet) combination.

The exhaustive routes run over the states of the shared containment
automaton, not over words.  Counts come from a transfer-matrix DP: words that
reach the same state (with the same last or largest letter, when the letter
rule needs it) share their future, so each length costs one pass over the
states.  Listings come from one explicit-stack walker that enters a prefix only
when the DP shows a word of the requested length can still finish below it,
and yields words in lexicographic order.  The closed-form counts they are
checked against live in count_formulas().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional

from .automaton import BudgetExceededError, _cache as _automata, get_automaton
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
    auto = get_automaton(d, k)
    frontier = [0]
    seen = {0}
    for depth in range(1, n_max + 1):
        next_frontier = []
        for state in frontier:
            for a in range(1, d + 1):
                t = auto.step(state, a)
                if auto.accepting[t]:
                    return depth
                if t not in seen:
                    seen.add(t)
                    if len(seen) > state_budget:
                        # Drop the half-built automaton rather than keep it
                        # for the life of the process.
                        _automata.pop((d, k), None)
                        raise BudgetExceededError(
                            f"minimum-length search for k={k}, d={d} exceeded {state_budget} states"
                        )
                    next_frontier.append(t)
        if not next_frontier:
            raise SuperpatternNotFoundError(
                f"no superpattern over a {d}-letter alphabet can contain all"
                f" length-{k} patterns"
            )
        frontier = next_frontier
    raise SuperpatternNotFoundError(f"no k={k} superpattern of length <= {n_max} over d={d}")


# --- exhaustive scans: transfer-matrix DP over the automaton -----------------

# Letter rules of a word space: any letter, no letter equal to the one before
# it, or first-occurrence canonical form (each new letter is the next unused).
_ANY, _NO_REPEAT, _CANONICAL = range(3)


class _WordSpace:
    """The words over {1..d} that extend a fixed prefix under one letter rule,
    as walks over nodes (automaton state, tag) encoded state * (d + 1) + tag.

    The tag is what the rule must remember: the last letter (_NO_REPEAT), the
    largest letter so far (_CANONICAL), or nothing, 0 (_ANY).  Words that
    reach the same node have the same extensions and the same verdicts, so
    counts come from a transfer-matrix DP over the nodes, level by level
    (Stanley, EC1 section 4.7), in O(n * nodes * d) steps instead of d^n.
    """

    def __init__(self, d: int, k: int, rule: int, prefix: tuple[int, ...] = ()):
        self.auto = get_automaton(d, k)
        self.d = d
        self.rule = rule
        self.prefix = prefix
        if rule == _NO_REPEAT and prefix:
            tag = prefix[-1]
        elif rule == _CANONICAL:
            tag = max(prefix, default=0)
        else:
            tag = 0
        self.root = self.auto.scan(prefix) * (d + 1) + tag
        self._moves: dict[int, tuple[tuple[int, int], ...]] = {}

    def moves(self, node: int) -> tuple[tuple[int, int], ...]:
        """The (letter, child node) pairs the rule allows out of a node, in
        letter order."""
        out = self._moves.get(node)
        if out is None:
            w = self.d + 1
            state, tag = divmod(node, w)
            step = self.auto.step
            if self.rule == _ANY:
                out = tuple((a, step(state, a) * w) for a in range(1, w))
            elif self.rule == _NO_REPEAT:
                out = tuple((a, step(state, a) * w + a) for a in range(1, w) if a != tag)
            else:
                top = min(tag + 1, self.d)
                out = tuple((a, step(state, a) * w + max(tag, a)) for a in range(1, top + 1))
            self._moves[node] = out
        return out

    def levels(self, n: int, strict: bool) -> tuple[list[dict[int, int]], list[int]]:
        """Forward DP to length n: levels[t] maps each node reached by words of
        length t to their number.

        Under strict, a word whose last letter first makes it a superpattern
        is tallied in hits[t] and not extended (no strict superpattern lies
        below it), so the levels hold only non-accepting nodes.  Depths below
        the prefix length hold nothing.
        """
        accepting = self.auto.accepting
        w = self.d + 1
        moves = self.moves
        t0 = len(self.prefix)
        level = {self.root: 1}
        levels = [{}] * t0 + [level]
        hits = [0] * (t0 + 1)
        for _ in range(t0, n):
            nxt: dict[int, int] = {}
            hit = 0
            for u, c in level.items():
                for _a, v in moves(u):
                    if strict and accepting[v // w]:
                        hit += c
                    else:
                        nxt[v] = nxt.get(v, 0) + c
            levels.append(nxt)
            hits.append(hit)
            level = nxt
        return levels, hits

    def walk(self, n: int, strict: bool) -> Iterator[Word]:
        """The words of length n that are strict superpatterns (strict) or
        superpatterns (otherwise), in lexicographic order.

        A backward pass over the forward levels keeps, at each depth, only the
        nodes from which a word of exactly the remaining length still ends in
        output, and each node at depth n - 1 keeps its finishing letters.  The
        explicit-stack walk enters only those nodes, so every prefix it visits
        leads to output.
        """
        if n < 0:
            raise ValueError(f"word length must be at least 0, got {n}")
        t0 = len(self.prefix)
        if n <= t0:
            return
        accepting = self.auto.accepting
        w = self.d + 1
        moves = self.moves
        levels = self.levels(n - 1, strict)[0]
        finish = {}
        for u in levels[n - 1]:
            letters = tuple(a for a, v in moves(u) if accepting[v // w])
            if letters:
                finish[u] = letters
        # alive[t]: the nodes at depth t below which some word ends in output
        # (depths t0 .. n - 2 are filled in here; the walk reads no others).
        alive = [finish] * n
        for t in range(n - 2, t0 - 1, -1):
            ahead = alive[t + 1]
            alive[t] = {u for u in levels[t] if any(v in ahead for _a, v in moves(u))}
        del levels
        if self.root not in alive[t0]:
            return
        d = self.d
        stack = [(self.root, self.prefix)]
        pop = stack.pop
        push = stack.append
        while stack:
            u, word = pop()
            t = len(word)
            if t == n - 1:
                for a in finish[u]:
                    yield Word(word + (a,), d)
                continue
            ahead = alive[t + 1]
            for a, v in reversed(moves(u)):  # the least letter pops first
                if v in ahead:
                    push((v, word + (a,)))


def strict_counts_by_length(
    d: int, k: int, n_max: int, budget: Optional[int] = None
) -> dict[int, int]:
    """Exact number of strict k-superpatterns of each length 1..n_max over {1..d}.

    A forward transfer-matrix DP over the automaton's states: each level maps
    every non-accepting state to the number of words of that length reaching
    it, and a step into an accepting state adds to that length's strict count
    (the last letter completed the final pattern).  The word-space budget
    still applies, so budget errors match the listing routes.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _require_within_budget(d**n_max, d, budget, f"strict-superpattern scan to n={n_max}")
    hits = _WordSpace(d, k, _ANY).levels(n_max, strict=True)[1]
    return {n: hits[n] for n in range(1, n_max + 1)}


def count_strict_superpatterns(d: int, k: int, n: int, budget: Optional[int] = None) -> int:
    """Exact count of words of length n over {1..d} whose waiting time is n."""
    return strict_counts_by_length(d, k, n, budget)[n]


def iter_strict_superpatterns(
    d: int, k: int, n: int, budget: Optional[int] = None
) -> Iterator[Word]:
    """Stream the strict k-superpatterns of length n in lexicographic order."""
    _require_within_budget(d**n, d, budget, f"strict-superpattern listing at n={n}")
    yield from _WordSpace(d, k, _ANY).walk(n, strict=True)


def iter_superpatterns(
    d: int, k: int, n: int, *, canonical: bool = False, budget: Optional[int] = None
) -> Iterator[Word]:
    """Stream every k-superpattern of length n (strict or not), lexicographic.

    With canonical=True only words in first-occurrence canonical form are
    produced, one representative per letter-isomorphism class.
    """
    _require_within_budget(d**n, d, budget, f"superpattern listing at n={n}")
    yield from _WordSpace(d, k, _CANONICAL if canonical else _ANY).walk(n, strict=False)


# --- the alternating (minimal) word space, first two letters fixed as 1,2 ----


def _alternating_budget_check(n: int, budget: Optional[int], what: str) -> None:
    if n < 3:
        raise ValueError("alternating enumeration needs n >= 3")
    # The space has 2^(n-2) words; reuse the binary word budget for its cap.
    _require_within_budget(2 ** (n - 2), 2, budget, what)


def _alternating(prefix: tuple[int, ...] = (1, 2)) -> _WordSpace:
    return _WordSpace(3, 3, _NO_REPEAT, prefix)


def iter_minimal_upto_iso(n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the minimal 3-superpatterns of length n starting 1,2 (one per
    isomorphism class), in lexicographic order."""
    _alternating_budget_check(n, budget, f"minimal-superpattern listing at n={n}")
    yield from _alternating().walk(n, strict=False)


def count_minimal_upto_iso(n: int, budget: Optional[int] = None) -> int:
    """Count of iter_minimal_upto_iso(n) without materialising the words.

    Once a prefix is accepting every alternating extension stays a
    superpattern, so each word first accepting at length t contributes
    2^(n-t) words of length n.
    """
    _alternating_budget_check(n, budget, f"minimal-superpattern count at n={n}")
    hits = _alternating().levels(n, strict=True)[1]
    return sum(h << (n - t) for t, h in enumerate(hits))


def iter_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the strict minimal 3-superpatterns of length n starting 1,2."""
    _alternating_budget_check(n, budget, f"strict-minimal listing at n={n}")
    yield from _alternating().walk(n, strict=True)


def count_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> int:
    _alternating_budget_check(n, budget, f"strict-minimal count at n={n}")
    return _alternating().levels(n, strict=True)[1][n]


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
    ones, threes = (
        sum(_alternating((1, 2, third)).levels(n, strict=True)[0][n].values()) for third in (1, 3)
    )
    return ones, threes


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

    An i after a j-then-k is the subsequence j, k, i and an i before one is
    i, j, k, so both halves say that every ordering a, b, c of the three
    letters occurs: some b lies after the first a and before the last c.
    """
    letters = word.letters
    if max(letters, default=0) > 3:
        raise ValueError("has_flanking_pairs expects a word over {1,2,3}")
    text = bytes(letters)
    find = text.find
    first = (0, find(1), find(2), find(3))
    if min(first) < 0:
        return False
    last = (0, text.rfind(1), text.rfind(2), text.rfind(3))
    for a, b, c in _DISTINCT_TRIPLES:
        if not 0 <= find(b, first[a] + 1) < last[c]:
            return False
    return True


_DISTINCT_TRIPLES = tuple(permutations((1, 2, 3)))


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
