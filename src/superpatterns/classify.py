"""Superpattern classification, exhaustive enumeration, and counting formulas.

A word is a k-superpattern when it contains every canonical pattern of length
k.  Refinements, for a word w of length n:

* minimal    -- superpattern with no two equal adjacent letters;
* strict     -- superpattern whose length-(n-1) prefix is not a superpattern,
                i.e. the last letter is needed (the waiting time hits n here);
* minimum    -- minimal superpattern whose length is the least possible for
                its (k, alphabet) combination.

Queries on one word (is_superpattern, missing_patterns, classify) rank the
word once and read it through the bit-parallel matchers of `patterns`:
missing_patterns and classify through the one of every pattern, which
interns nothing, and is_superpattern pattern by pattern, stopping at the
first one missing.  missing_patterns picks the patterns missing by their
guard bytes in the final state.  classify reads all but the last letter
first: the word is strict when that prefix is not a superpattern.  It
reads minimality against one table of bounds on the least superpattern
length (_least_length_bounds), whose proven entries min_superpattern_length
returns without a search; the tests prove each by the strict counting DP
below.  The quaternary check walks its word's 12-letter candidates as one
trie of subsequences through the matcher of every pattern, one letter per
edge.

The exhaustive routes run over automaton states, not over words: those of the
containment automaton's minimal DFA over small alphabets, shared with the
simulator, and those of a word space's own lazy automaton past them (one
rule, _automaton, picks from d and k).  Counts come from a transfer-matrix DP:
words that reach the same state (with the same last or largest letter, when
the letter rule needs it) share their future, so each length costs one pass
over the states.  Listings come from one explicit-stack walker that enters a
prefix only when the DP shows a word of the requested length can still finish
below it, and yields words in lexicographic order.  It keeps the current
prefix's letters in one shared list and stops at a split depth h, where each
node's tails, the words' last n - h letters, are already built as tail blocks
shared by every prefix that reaches the node: it yields them in bulk, the
prefix joined to each tail, as Words built without re-checking letters that
are the automaton's moves over 1..d.  The blocks rise from the finishing
letters while the nodes at the next depth up hold fewer tails than prefixes
reach them and the tail letters built stay within the words printed, so past
the DP a listing costs time linear in the letters it prints, and one
shorter than the least length's lower bound ends before any DP.  A count
keeps one level of the DP.  Counts and listings stop when the DFA's build
passes its budget (_dfa.STATE_BUDGET) or the lazy automaton refuses a state
past its own (automaton.SEARCH_STATE_BUDGET); a listing is also bounded by
the words and letters it would print, which the walker's DP counts before
the first word (WORD_BUDGET words by default).  The closed-form counts they
are checked against live in count_formulas(), and the flanking-pairs check
is one match of a compiled pattern over the word's bytes.
"""

from __future__ import annotations

import math
import re
from functools import cache, cached_property, lru_cache
from itertools import chain, compress, permutations, repeat
from operator import eq
from typing import Callable, Iterator, NamedTuple, Optional

from ._dfa import close_and_minimise
from ._value import _Value
from .automaton import get_automaton
from .patterns import (
    BudgetExceededError,
    Pattern,
    Word,
    _matcher,
    _ranked,
    _unchecked_word,
    contains_pattern,
    enumerate_preferential_arrangements,
)

__all__ = [
    "BudgetExceededError",
    "ClassFlags",
    "CountReport",
    "is_superpattern",
    "missing_patterns",
    "classify",
    "min_superpattern_length",
    "strict_counts_by_length",
    "count_strict_superpatterns",
    "iter_strict_superpatterns",
    "iter_superpatterns",
    "count_minimal_upto_iso",
    "iter_strict_minimal_upto_iso",
    "count_strict_minimal_upto_iso",
    "count_formulas",
    "count_beta_bruteforce",
    "has_flanking_pairs",
    "ends_with_minimum_superpattern",
    "minimum_superpatterns_ternary",
    "QUATERNARY_EXAMPLE",
    "verify_quaternary_counterexample",
]


# The most words a listing may print (and so its letters, see _WordSpace.walk)
# unless its caller passes a budget, as the CLI's --budget does.
WORD_BUDGET = 2**24


class ClassFlags(_Value):
    """Classification record for one word at one pattern length."""

    __slots__ = __match_args__ = ("is_superpattern", "is_minimal", "is_strict", "is_minimum")
    is_superpattern: bool
    is_minimal: bool
    is_strict: bool
    is_minimum: bool

    def __init__(self, is_superpattern: bool, is_minimal: bool, is_strict: bool, is_minimum: bool) -> None:
        if is_minimum and not (is_minimal and is_strict):
            raise ValueError("minimum implies minimal and strict")
        if (is_minimal or is_strict) and not is_superpattern:
            raise ValueError("minimal/strict imply superpattern")
        object.__setattr__(self, "is_superpattern", is_superpattern)
        object.__setattr__(self, "is_minimal", is_minimal)
        object.__setattr__(self, "is_strict", is_strict)
        object.__setattr__(self, "is_minimum", is_minimum)


# What classify returns for every word that is not a superpattern; the
# record is frozen, so one can be shared.
_NOT_SUPERPATTERN = ClassFlags(False, False, False, False)


class CountReport(_Value):
    """Closed-form counts for ternary superpatterns of one length n >= 7.

    gamma_total -- minimal superpatterns up to letter isomorphism
    s_mu        -- strict minimal superpatterns up to isomorphism
    s_a         -- strict superpatterns, repeats allowed, up to isomorphism
    s_total     -- all strict superpatterns (6 isomorphic copies each)
    beta_a/b    -- alternating candidate words failing to become superpatterns,
                   split by whether their third letter repeats the first
    """

    __slots__ = __match_args__ = ("n", "gamma_total", "s_mu", "s_a", "s_total", "beta_a", "beta_b", "beta_total")
    n: int
    gamma_total: int
    s_mu: int
    s_a: int
    s_total: int
    beta_a: int
    beta_b: int
    beta_total: int

    def __init__(
        self, n: int, gamma_total: int, s_mu: int, s_a: int, s_total: int, beta_a: int, beta_b: int, beta_total: int
    ) -> None:
        if beta_total != beta_a + beta_b:
            raise ValueError("beta_total must equal beta_a + beta_b")
        if s_total != 6 * s_a:
            raise ValueError("s_total must equal 6 * s_a")
        if n >= 7 and gamma_total != 2 ** (n - 2) - beta_total:
            raise ValueError("gamma_total must equal 2^(n-2) - beta_total")
        self._fill(n, gamma_total, s_mu, s_a, s_total, beta_a, beta_b, beta_total)


def is_superpattern(word: Word, k: int) -> bool:
    """Whether the word contains every canonical pattern of length k."""
    ranked = _ranked(word)
    return all(contains_pattern(ranked, p) for p in enumerate_preferential_arrangements(k))


def missing_patterns(word: Word, k: int) -> list[Pattern]:
    """The canonical length-k patterns the word does not contain, in
    lexicographic order; empty exactly when the word is a superpattern.
    Otherwise the missing guards are read as bytes once, and the patterns
    whose guard byte is set are picked from them."""
    patterns = enumerate_preferential_arrangements(k)
    ranked = _ranked(word)
    matcher = _matcher(ranked.alphabet_size, k)
    missing = matcher.missing(matcher.run(ranked.letters))
    if not missing:
        return []
    guards = missing.to_bytes(matcher.width // 8, "little")
    return list(compress(patterns, map(guards.__getitem__, matcher.places)))


def classify(word: Word, k: int) -> ClassFlags:
    """Full classification of a word: superpattern / minimal / strict / minimum."""
    ranked = _ranked(word)
    matcher = _matcher(ranked.alphabet_size, k)
    # Strict: a superpattern whose prefix one letter shorter is not one.
    state = matcher.run(ranked.letters[:-1])
    strict = matcher.missing(state) != 0
    if strict and matcher.missing(matcher.run(ranked.letters[-1:], state)):
        return _NOT_SUPERPATTERN
    letters = word.letters
    n = len(letters)
    minimal = not any(map(eq, letters, letters[1:]))
    minimum = False
    if minimal and n <= _least_length_bounds(k, word.alphabet_size)[1]:
        minimum = min_superpattern_length(k, word.alphabet_size) == n
    return ClassFlags(True, minimal, strict, minimum)


def _least_length_bounds(k: int, d: int) -> tuple[float, float]:
    """Bounds (lower, upper) on L(k, d), the least length of a k-superpattern
    over d letters, for k <= MAX_PATTERN_LENGTH or k > d.  For k > d no word
    holds 12...k, so there is no finite bound (math.inf).  Each upper bound is
    the length of a superpattern the tests hold, and it holds for every
    larger d, since patterns of length k never use more than k distinct
    values; for k = 4 it falls from 12 to 11 once d >= 5 (42134254124).
    Where the two are equal the tests prove it by the strict counting DP:
    no shorter word is a superpattern.  Elsewhere the lower bound is 2k - 1,
    since a k-superpattern holds k equal letters (for 1...1) and k distinct
    ones (for 12...k), and the two share at most one letter."""
    if k > d:
        return math.inf, math.inf
    if k == 4 and d >= 5:
        return 7, 11
    return {1: (1, 1), 2: (3, 3), 3: (7, 7), 4: (12, 12), 5: (9, 19)}[k]


def _relabelling_keeps_status(d: int, k: int) -> bool:
    """Whether every relabelling of the letters of a word over {1..d} keeps
    its k-superpattern status, so its first-occurrence canonical form stands
    for its letter-isomorphism class.  That holds for k = 1, for k > d and
    for d = k <= 4; it fails for every other (d, k) up to (6, 2) (for k = 2,
    1132 is a superpattern and its canonical form 1123 is not) and is
    unchecked beyond."""
    return k == 1 or k > d or k == d <= 4


def min_superpattern_length(k: int, d: int) -> int:
    """Least n such that some word of length n over {1..d} is a k-superpattern.

    Read from the proven entries of one table (_least_length_bounds): 1, 3
    and 7 for k = 1, 2 and 3 over any d >= k, and L(4, 4) = 12.  Raises
    ValueError, first, for k past MAX_PATTERN_LENGTH, then for d < 1, and
    for k > d, since no word over fewer than k letters holds 12...k;
    BudgetExceededError, at once, where the least length is not proven, as
    for k = 4 over five or more letters and for k = 5.
    """
    enumerate_preferential_arrangements(k)
    if d < 1:
        raise ValueError("alphabet size must be at least 1")
    if k > d:
        raise ValueError(f"no superpattern over a {d}-letter alphabet can contain all length-{k} patterns")
    lower, upper = _least_length_bounds(k, d)
    if lower < upper:
        raise BudgetExceededError(
            f"the least superpattern length for k={k} over {d} letters is not proven:"
            f" it lies between {lower} and {upper}"
        )
    return upper


# --- exhaustive scans: transfer-matrix DP over the automaton -----------------

# Letter rules of a word space: any letter, no letter equal to the one before
# it, or first-occurrence canonical form (each new letter is the next unused).
_ANY, _NO_REPEAT, _CANONICAL = range(3)

# The bound on both d**k and k**d up to which the word space steps the minimal
# DFA; k**d is its state floor, since the pattern 1...1 alone tells apart every
# count 0..k-1 of each letter.  Under it the DFA closes in at most 0.43 s, at
# (5, 3) with 20,193 states, and (4, 4) in about 0.1 s with 2,014.  Past it
# (6, 3) is refused on its state budget after a second of closure, and a
# short (d >= 9, 2) listing is faster lazily, since the build outweighs it:
# (12, 2) at n = 3 takes 0.010 s against 0.17 s on its DFA.  The lazy
# automaton interns only the states the words reach.
_DFA_BOUND = 256


class _Automaton(NamedTuple):
    """What the word-space DP reads of an automaton: the successor of a state
    on a letter (1-based), and whether each state accepts, indexed by state."""

    step: Callable[[int, int], int]
    accepting: list[bool]


def _automaton(d: int, k: int) -> _Automaton:
    """The automaton the word space steps, for k <= d: the shared minimal DFA
    (_dfa.close_and_minimise) when d**k and k**d are both at most _DFA_BOUND,
    where it closes quickly and its states are the fewest; otherwise a new
    lazy automaton, which interns only the states the words reach.  Decided
    from (d, k) alone, before any closure work."""
    if d**k <= _DFA_BOUND and k**d <= _DFA_BOUND:
        rows, accept = close_and_minimise(d, k)
        return _Automaton(lambda s, a: rows[s][a - 1], [s == accept for s in range(len(rows))])
    auto = get_automaton(d, k)
    return _Automaton(auto.step, auto.accepting)


class _WordSpace:
    """The words over {1..d} that extend a fixed prefix under one letter rule,
    as walks over nodes (automaton state, tag) encoded state * (d + 1) + tag.

    The tag is what the rule must remember: the last letter (_NO_REPEAT), the
    largest letter so far (_CANONICAL), or nothing, 0 (_ANY); the other
    methods read the rule only through pairs(tag).  Words that reach the same
    node have the same extensions and the same verdicts, so counts come from
    a transfer-matrix DP over the nodes, level by level (Stanley, EC1
    section 4.7), in O(n * nodes * d) steps instead of d^n.

    The states are those of the automaton _automaton picks from (d, k): the
    minimal DFA over small alphabets (44 states for (3, 3), against 646 lazy
    product states), else the lazy automaton.  It is made when the DP first
    steps, so a space that needs no DP makes none, and a lazy one lives as
    long as the space.  Counts and listings alike raise BudgetExceededError
    when the DFA's closure passes its budget (_dfa.STATE_BUDGET), or when the
    lazy automaton refuses a state past its own.
    """

    def __init__(self, d: int, k: int, rule: int, prefix: tuple[int, ...] = ()):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        # No word over fewer than k letters contains the pattern 12...k, so
        # for k > d the space holds no superpattern and needs no automaton;
        # otherwise a pattern length past the cap is refused here.
        if k <= d:
            enumerate_preferential_arrangements(k)
        self.d = d
        self.k = k
        self.prefix = prefix
        # The rule, stated once: the (letter, next tag) pairs allowed after a
        # tag, in letter order, and a refused listing's name by strict.
        letters = range(1, d + 1)
        self.listing = ("superpattern", "strict-superpattern")
        if rule == _ANY:
            pairs = lambda tag: tuple((a, 0) for a in letters)
        elif rule == _NO_REPEAT:
            pairs = lambda tag: tuple((a, a) for a in letters if a != tag)
            self.listing = ("minimal-superpattern", "strict-minimal")
        else:
            pairs = lambda tag: tuple((a, max(tag, a)) for a in letters[: tag + 1])
        self.pairs = cache(pairs)
        self._moves: dict[int, tuple[tuple[int, int], ...]] = {}

    @cached_property
    def auto(self) -> _Automaton:
        """The automaton the DP steps, picked when the DP first steps."""
        return _automaton(self.d, self.k)

    @cached_property
    def root(self) -> int:
        """The prefix's node, walked from the empty word's: state 0, tag 0."""
        node = 0
        for a in self.prefix:
            node = dict(self.moves(node))[a]
        return node

    def moves(self, node: int) -> tuple[tuple[int, int], ...]:
        """The (letter, child node) pairs the rule allows out of a node, in
        letter order."""
        out = self._moves.get(node)
        if out is None:
            w = self.d + 1
            state, tag = divmod(node, w)
            step = self.auto.step
            out = self._moves[node] = tuple((a, step(state, a) * w + b) for a, b in self.pairs(tag))
        return out

    def levels(self, n: int, strict: bool) -> Iterator[tuple[dict[int, int], int]]:
        """Forward DP from the prefix length t0 to length n: yields, for
        t = t0 .. n, a map from each node reached by words of length t to
        their number, and the hits at t: the words of length t past t0 that
        are superpatterns (strict superpatterns, under strict).

        Under strict, a word whose last letter first makes it a superpattern
        is tallied in the hits and not extended (no strict superpattern lies
        below it), so the levels past t0 hold only non-accepting nodes.  Only
        the current level is kept; a caller that needs earlier ones keeps them.
        """
        t0 = len(self.prefix)
        accepting = self.auto.accepting
        w = self.d + 1
        moves = self.moves
        level = {self.root: 1}
        yield level, 0
        for _ in range(t0, n):
            nxt: dict[int, int] = {}
            hit = 0
            for u, c in level.items():
                for _a, v in moves(u):
                    if accepting[v // w]:
                        hit += c
                        if strict:
                            continue
                    nxt[v] = nxt.get(v, 0) + c
            yield nxt, hit
            level = nxt

    def walk(self, n: int, strict: bool, budget: Optional[int]) -> Iterator[Word]:
        """The words of length n that are strict superpatterns (strict) or
        superpatterns (otherwise), in lexicographic order.

        A backward pass over the forward levels keeps, at each depth, only the
        nodes from which a word of exactly the remaining length still ends in
        output.  It starts with tail blocks: each node at depth h = n - 1
        keeps its finishing letters as one-letter tails, and a node one depth
        up keeps a letter into each child followed by each of the child's
        tails.  Prefixes that reach the same node share its tails, so the
        blocks rise a depth at a time while two counts the walk already has
        say they pay: the nodes alive at the new depth hold fewer tails than
        there are prefixes reaching them (the sum of their forward counts),
        and the tail letters built so far, the new depth's included, stay
        within the words the listing prints.  The second rule keeps the
        blocks linear in the output and the first word quick.  Each level
        of tails replaces the one below it; above h only alive nodes are kept.

        The explicit-stack walk enters only alive nodes, so every prefix it
        visits leads to output, and it goes no deeper than h.  Its stack
        holds (node, depth, letters into it); the letters of the current
        prefix live in one shared list, cut back to the popped depth and
        extended by the popped letter (the root's entry rewrites the
        prefix's own last letter).  At depth h the prefix becomes a tuple
        once, and the node yields its words in bulk: the prefix joined to
        each tail, built as Words without re-checking letters that are moves
        over 1..d.  So past the DP the walk costs time linear in the letters
        it prints.

        Both passes share one list of per-depth levels: the backward pass
        overwrites each forward level with the nodes it keeps, and a level
        equal to its neighbour is stored once, so a d = 1 walk holds one.
        A listing shorter than the least superpattern length's lower bound
        (_least_length_bounds) returns before any DP.

        Before the first word, their count (each node at depth n - 1 times its
        finishing letters) meets the budget B (WORD_BUDGET by default): past B
        words, or past B * (B.bit_length() + 1) letters, as many as a word
        space of at most B words (d^n, d >= 2, or 2^(n - 2) alternating) can
        hold, BudgetExceededError is raised, naming the listing by the rule
        and strict.  The DP's step is one fixed non-negative linear map, so
        once a level of n - 1's parity dominates, node by node, the one two
        lengths before, the counts at n's parity never fall again, and the
        forward pass refuses at the first such length past either cap.  An
        empty strict level ends the listing.
        """
        if n < 0:
            raise ValueError(f"word length must be at least 0, got {n}")
        t0 = len(self.prefix)
        if n <= t0 or n < _least_length_bounds(self.k, self.d)[0]:
            return
        cap = WORD_BUDGET if budget is None else budget
        letter_cap = cap * (cap.bit_length() + 1)

        def refuse_past_cap(count: int, bound: str) -> None:
            if count > cap or count * n > letter_cap:
                raise BudgetExceededError(
                    f"{self.listing[strict]} listing at n={n} would print {bound}{count} words of"
                    f" {n} letters, over the cap of {cap} words or {letter_cap} letters"
                )
        accepting = self.auto.accepting
        w = self.d + 1
        moves = self.moves
        levels: list = [{}] * t0
        grows = False
        for t, (level, hit) in enumerate(self.levels(n - 1, strict), start=t0):
            if not level:
                return
            if (n - t) % 2:
                if not grows and t - 2 >= t0:
                    grows = all(level.get(u, 0) >= c for u, c in levels[t - 2].items())
            elif grows:
                refuse_past_cap(hit, "at least ")
            if levels and level == levels[-1]:
                level = levels[-1]
            levels.append(level)
        # tails maps each node at depth h from which some word ends in output
        # to the n - h letters that finish it, starting at h = n - 1; sizes
        # counts a level's tails before it is built (see the docstring).
        tails = {}
        count = 0
        for u, c in levels[n - 1].items():
            ends = [(a,) for a, v in moves(u) if accepting[v // w]]
            if ends:
                tails[u] = ends
                count += c * len(ends)
        refuse_past_cap(count, "")
        if not count:
            return
        built = sum(map(len, tails.values()))
        h = n - 1
        while h > t0:
            reached = levels[h - 1]
            sizes = {u: s for u in reached if (s := sum(len(tails.get(v, ())) for _a, v in moves(u)))}
            total = sum(sizes.values())
            built += total * (n - h + 1)
            if total >= sum(map(reached.__getitem__, sizes)) or built > count:
                break
            tails = {u: [(a,) + tail for a, v in moves(u) for tail in tails.get(v, ())] for u in sizes}
            h -= 1
        # Now levels[t] becomes the nodes at depth t below which some word
        # ends in output, for t = t0 + 1 .. h, with the tails at h (the walk
        # reads no others).
        del levels[h:]
        levels.append(tails)
        for t in range(h - 1, t0, -1):
            ahead = levels[t + 1]
            alive = {u for u in levels[t] if any(v in ahead for _a, v in moves(u))}
            levels[t] = ahead if alive == ahead else alive
        d = self.d
        path = list(self.prefix)
        # Entries (node, depth, letters into it), the least letter on top;
        # the root's entry sets no letter, since prefix[-1:] rewrites the
        # prefix's last letter with itself.
        stack = [(self.root, t0, self.prefix[-1:])]
        pop = stack.pop
        push = stack.append
        while stack:
            u, t, a = pop()
            path[t - 1 :] = a
            if t == h:
                yield from map(_unchecked_word, map(tuple(path).__add__, tails[u]), repeat(d))
                continue
            ahead = levels[t + 1]
            t += 1
            for a, v in reversed(moves(u)):
                if v in ahead:
                    push((v, t, (a,)))


def _strict_counts(d: int, k: int, n_max: int) -> Iterator[int]:
    """The number of strict k-superpatterns over {1..d} of each length
    1..n_max, one length at a time.

    A forward transfer-matrix DP over the word space's automaton states: each
    level maps every non-accepting state to the number of words of that length
    reaching it, and a step into an accepting state adds to that length's
    strict count (the last letter completed the final pattern).  It keeps one
    level, so its size is the automaton's, bounded by its state budget.  The
    first length is counted before this returns, so a minimal DFA is made, or
    refused, before a caller writes anything; the lazy automaton may still
    refuse a state at a later length.  Below the least length of a
    superpattern (_least_length_bounds) every count is 0, and none is made.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space = _WordSpace(d, k, _ANY)
    if n_max < _least_length_bounds(k, d)[0]:
        return repeat(0, n_max)
    hits = (hit for _level, hit in space.levels(n_max, strict=True))
    next(hits)  # the empty word
    return chain([next(hits)], hits)


def strict_counts_by_length(d: int, k: int, n_max: int) -> dict[int, int]:
    """Exact number of strict k-superpatterns of each length 1..n_max over
    {1..d}, by the DP of _strict_counts."""
    return dict(enumerate(_strict_counts(d, k, n_max), 1))


def count_strict_superpatterns(d: int, k: int, n: int) -> int:
    """Exact count of words of length n over {1..d} whose waiting time is n."""
    return strict_counts_by_length(d, k, n)[n]


def iter_strict_superpatterns(d: int, k: int, n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the strict k-superpatterns of length n in lexicographic order,
    bounded by the budget as in _WordSpace.walk."""
    return _WordSpace(d, k, _ANY).walk(n, True, budget)


def iter_superpatterns(
    d: int, k: int, n: int, *, canonical: bool = False, budget: Optional[int] = None
) -> Iterator[Word]:
    """Stream every k-superpattern of length n (strict or not), lexicographic.

    With canonical=True only words in first-occurrence canonical form are
    produced (each new letter is the least unused one), one per
    letter-isomorphism class; where _relabelling_keeps_status fails that
    would miss classes, so there canonical=True raises ValueError.  Bounded
    as in _WordSpace.walk.
    """
    # The space refuses bad (d, k) and a pattern length past the cap first.
    space = _WordSpace(d, k, _CANONICAL if canonical else _ANY)
    if canonical and not _relabelling_keeps_status(d, k):
        raise ValueError(
            f"a listing up to isomorphism at d={d}, k={k} would miss classes, since relabelling letters"
            " changes which words are superpatterns; it is answered only for k = 1, k > d or d = k <= 4"
        )
    return space.walk(n, False, budget)


# --- the alternating (minimal) word space, first two letters fixed as 1,2 ----


def _alternating(n: int, prefix: tuple[int, ...] = (1, 2)) -> _WordSpace:
    """The alternating (3, 3) word space that extends the prefix, for
    listings and counts at a length n >= 3."""
    if n < 3:
        raise ValueError("alternating enumeration needs n >= 3")
    return _WordSpace(3, 3, _NO_REPEAT, prefix)


def _alternating_count(
    n: int, prefix: tuple[int, ...] = (1, 2)
) -> tuple[dict[int, int], list[int]]:
    """The strict counting DP to length n over the alternating words that
    extend the prefix: its level at n, and its hits at each length from the
    prefix's to n."""
    hits = []
    for level, hit in _alternating(n, prefix).levels(n, strict=True):
        hits.append(hit)
    return level, hits


def _minimal_listing(
    n: int, strict: bool, budget: Optional[int], prefix: tuple[int, ...] = (1, 2)
) -> Iterator[Word]:
    """The minimal (strict minimal, under strict) 3-superpatterns of length n
    that extend the prefix, in lexicographic order.  Under the empty prefix
    that is every one of them: six per isomorphism class, since each holds
    all three letters.  Bounded as in _WordSpace.walk."""
    return _alternating(n, prefix).walk(n, strict, budget)


def count_minimal_upto_iso(n: int) -> int:
    """The number of minimal 3-superpatterns of length n starting 1,2 (one
    per isomorphism class), without listing them.

    Once a prefix is accepting every alternating extension stays a
    superpattern, so each word first accepting at length t contributes
    2^(n-t) words of length n.
    """
    return sum(h << (n - t) for t, h in enumerate(_alternating_count(n)[1], start=2))


def iter_strict_minimal_upto_iso(n: int, budget: Optional[int] = None) -> Iterator[Word]:
    """Stream the strict minimal 3-superpatterns of length n starting 1,2."""
    return _minimal_listing(n, True, budget)


def count_strict_minimal_upto_iso(n: int) -> int:
    return _alternating_count(n)[1][-1]


# --- closed-form counts ------------------------------------------------------


def count_formulas(n: int) -> CountReport:
    """Closed-form ternary superpattern counts at length n (defined for n >= 7)."""
    if n < 7:
        raise ValueError("the counting formulas hold for n >= 7")
    s_a = _strict_count_upto_iso(n)
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


def _strict_count_upto_iso(n: int) -> int:
    """s_a at length n >= 7: with N = n - 2, the sum over j = 5..N of
    ((j-2)^2 - 2) C(N, j), read as the full binomial sum
    N(N+1) 2^(N-2) - 4N 2^(N-1) + 2^(N+1) less its terms j <= 4."""
    big = n - 2
    full = big * (big + 1) * 2 ** (big - 2) - 4 * big * 2 ** (big - 1) + 2 ** (big + 1)
    return full - sum(((j - 2) ** 2 - 2) * math.comb(big, j) for j in range(5))


def count_beta_bruteforce(n: int) -> tuple[int, int]:
    """Among the 2^(n-2) alternating words starting 1,2, count those that fail
    to become 3-superpatterns, split by the third letter: (third letter 1,
    third letter 3).  The two counts match n^2-7n+14 and 3n-10 for n >= 7.
    """
    ones, threes = (sum(_alternating_count(n, (1, 2, third))[0].values()) for third in (1, 3))
    return ones, threes


# --- structural checks -------------------------------------------------------


# One lookahead per ordering a, b, c of {1, 2, 3}, each matching the
# subsequence a, b, c greedily from the start of the word's bytes.
_EVERY_ORDERING = re.compile(
    b"".join(
        b"(?=[^%c]*%c[^%c]*%c[^%c]*%c)" % (a, a, b, b, c, c)
        for a, b, c in permutations((1, 2, 3))
    )
)


def has_flanking_pairs(word: Word) -> bool:
    """Whether a word over {1,2,3} is a 3-superpattern: for every choice of
    distinct letters i, j, k there is an occurrence of i preceded by a
    j-then-k subsequence, one followed by j-then-k, and likewise for k-then-j
    (four separate occurrences of i are allowed).  The condition is necessary
    and sufficient over three letters: the six orderings of 1, 2, 3 are the
    only instances of the six permutation patterns there, and a word holding
    every permutation of 1..k over k letters holds every pattern of length k.

    An i after a j-then-k is the subsequence j, k, i and an i before one is
    i, j, k, so both halves say that every ordering a, b, c of the three
    letters occurs.  That is one match of six lookaheads [^a]*a[^b]*b[^c]*c,
    anchored at the start.  Each negated class can stop only before the
    first of its letter, so a failed lookahead backtracks at most once
    through each run and the match takes linear time.
    """
    letters = word.letters
    # A Word's letters are at most its alphabet size, so only an alphabet
    # past 3 needs its letters read.
    if word.alphabet_size > 3 and max(letters, default=0) > 3:
        raise ValueError("has_flanking_pairs expects a word over {1,2,3}")
    return _EVERY_ORDERING.match(bytes(letters)) is not None


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
    return _ends_with_minimum(word)


def _ends_with_minimum(word: Word) -> bool:
    """Whether some image of a minimum 3-superpattern, its three letters
    mapped one-to-one into the word's alphabet, ends with the word's last
    letter and has the rest of its letters as a subsequence of the word's
    other letters.  One greedy scan per image (42 of them for d = 3), so
    O(n) for each instead of a search over the C(n-1, 6) subsequences."""
    *body, last = word.letters
    for images in permutations(range(1, word.alphabet_size + 1), 3):
        for m in minimum_superpatterns_ternary():
            *head, end = (images[v - 1] for v in m.letters)
            if end == last:
                rest = iter(body)
                if all(v in rest for v in head):
                    return True
    return False


# --- the quaternary counterexample word --------------------------------------

# Two copies of the minimum superpattern 1213121 separated by a single 4.
QUATERNARY_EXAMPLE = Word.parse("121312141213121", alphabet_size=4)


def verify_quaternary_counterexample() -> bool:
    """The 15-letter word 121312141213121 is a strict superpattern for
    length-4 patterns over {1,2,3,4}, yet none of its C(15,12) = 455
    length-12 subsequences is a superpattern.

    The least 4-superpattern over four letters has L(4,4) = 12 letters, a
    proven entry of the least-length table (_least_length_bounds) that
    min_superpattern_length(4, 4) reads, so a 12-letter one is minimum.  A
    minimum one has no two equal adjacent letters, since deleting one of
    them would leave an 11-letter superpattern.  So only the distinct
    subsequences without such a pair are tested: 102 of the 455 for this
    word.  They are walked as one trie, each letter taken at its first
    occurrence left (so each subsequence is reached once) while enough
    letters remain, and each trie edge steps the matcher of all 75 patterns
    one letter.  Strictness thus does not force an embedded minimum
    superpattern once the alphabet grows past three letters.
    """
    w = QUATERNARY_EXAMPLE
    if not is_superpattern(w, 4) or is_superpattern(w.prefix(len(w) - 1), 4):
        return False
    letters, n = w.letters, len(w)
    # firsts[i]: each distinct letter of letters[i:] at its first index there.
    firsts: list[dict[int, int]] = [{}] * (n + 1)
    for i in range(n - 1, -1, -1):
        firsts[i] = {**firsts[i + 1], letters[i]: i}
    matcher = _matcher(4, 4)
    stack = [(0, 0, 0, matcher.low)]  # (next index, depth, last letter, state)
    while stack:
        i, depth, last, state = stack.pop()
        if depth == 12:
            if not matcher.missing(state):
                return False
            continue
        for a, j in firsts[i].items():
            if a != last and j <= n + depth - 12:
                stack.append((j + 1, depth + 1, a, matcher.run((a,), state)))
    return True
