from __future__ import annotations

import gc
import math
import random
import weakref
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, permutations, product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import pytest

from superpatterns import (
    ContainmentAutomaton,
    Pattern,
    RationalFunction,
    SimSummary,
    Word,
    enumerate_preferential_arrangements,
    get_automaton,
    is_superpattern,
    minimum_superpatterns_ternary,
    relabel_canonical,
)
from superpatterns.waiting import _CHUNK_BYTES, _TRIALS_PER_BLOCK, _block_seed


@pytest.fixture
def automata(monkeypatch) -> list[weakref.ref]:
    """Weak references to every ContainmentAutomaton made while the test
    runs.  ContainmentAutomaton.__init__ is wrapped, since `_dfa` and
    `classify` hold get_automaton by name."""
    made: list[weakref.ref] = []
    init = ContainmentAutomaton.__init__

    def recorded(self, d: int, k: int) -> None:
        init(self, d, k)
        made.append(weakref.ref(self))

    monkeypatch.setattr(ContainmentAutomaton, "__init__", recorded)
    return made


def alive(automata: list[weakref.ref]) -> list[ContainmentAutomaton]:
    """The recorded automata that something still holds after a full
    garbage collection."""
    gc.collect()
    return [auto for auto in (ref() for ref in automata) if auto is not None]


def all_words(d: int, n: int) -> Iterator[Word]:
    """Every word of length n over {1..d}, in counter order."""
    for letters in product(range(1, d + 1), repeat=n):
        yield Word(letters, d)


def isomorphism_orbit(words: Iterable[Word]) -> list[Word]:
    """Oracle for the full listings: all distinct letter-isomorphic images of
    the given words, sorted."""
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


# The all-subsequences oracle is exponential in the word length; keep it on a
# short leash so nobody feeds it a long word by accident.
BRUTEFORCE_MAX_WORD = 10


def contains_pattern_bruteforce(word: Word, pattern: Pattern) -> bool:
    """Oracle for contains_pattern: scan every length-k subsequence and
    dense-rank it.  Words longer than BRUTEFORCE_MAX_WORD are rejected."""
    if len(word) > BRUTEFORCE_MAX_WORD:
        raise ValueError(f"brute-force containment capped at |word| <= {BRUTEFORCE_MAX_WORD}")
    for idxs in combinations(range(len(word)), len(pattern)):
        sub = [word.letters[i] for i in idxs]
        rank = {v: r for r, v in enumerate(sorted(set(sub)), 1)}
        if tuple(rank[v] for v in sub) == pattern.letters:
            return True
    return False


# --- the backtracking containment search, kept as the reference oracle -------


def search_plan(letters: Sequence[int]) -> tuple[tuple[int, bool, int, int], ...]:
    """One (rank, fixed, below, above) record per pattern position: fixed
    says an earlier position has the same rank, and below and above are the
    nearest ranks under and over it that earlier positions have, with
    sentinels 0 and m + 1 for m ranks.  The search reads below and above only
    for a rank that is not fixed.

    >>> search_plan((2, 1, 2, 3))
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


def occurrences(letters: Sequence[int]) -> list[dict[int, int]]:
    """Next-occurrence table of a word: entry i maps each distinct value in
    letters[i:] to its first index at or after i, with the values in order of
    those indices.  O(n*w) for n letters and w distinct values."""
    table: list[dict[int, int]] = [{}] * len(letters)
    following: dict[int, int] = {}
    for i in range(len(letters) - 1, -1, -1):
        v = letters[i]
        row = {v: i, **following}
        row[v] = i
        table[i] = following = row
    return table


def embedding_in_table(table: Sequence[dict[int, int]], pattern: Pattern) -> Optional[tuple[int, ...]]:
    """Backtracking search over the pattern's positions for the
    lexicographically least embedding (0-based indices) into the word the
    table describes, or None.

    Each position tries each distinct letter value once, at its leftmost
    occurrence after the previous pick: a later occurrence of the same value
    leaves a subset of the same continuations.  The pattern's search plan
    says, per position, whether its rank already has a value, which is then
    the one candidate, or else which fixed ranks bound it: as values increase
    with rank, a free rank takes the values strictly between those of the
    nearest fixed ranks below and above it.  Candidates come in index order,
    so the first witness is the one a plain index-by-index search would find.
    """
    n = len(table)
    plan = search_plan(pattern.letters)
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
    """Oracle for contains_pattern: the lexicographically least embedding of
    the pattern into the word, as a strictly increasing tuple of 0-based
    indices whose subsequence dense-ranks to the pattern; None when the word
    does not contain the pattern.  Any pattern length and any alphabet."""
    return embedding_in_table(occurrences(word.letters), pattern)


def first_acceptance_time(auto: ContainmentAutomaton, letters: Iterable[int]) -> Optional[int]:
    """The 1-based length of the first prefix the automaton accepts, or None:
    the waiting time of a letter stream, read off the automaton."""
    state = 0
    for t, a in enumerate(letters, 1):
        state = auto.step(state, a)
        if auto.accepting[state]:
            return t
    return None


def close_lazily(d: int, k: int) -> ContainmentAutomaton:
    """Oracle for the closure behind `_dfa.close_and_minimise`: a fresh
    automaton with every state reachable before acceptance built, the full
    product of all pattern components, by breadth-first search through
    step (accepting states are not expanded)."""
    auto = ContainmentAutomaton(d, k)
    # States are numbered as they are found, so visiting them in number order
    # is a breadth-first search.
    state = 0
    while state < auto.state_count:
        if not auto.accepting[state]:
            for a in range(1, d + 1):
                auto.step(state, a)
        state += 1
    return auto


def ends_with_minimum_by_subsets(word: Word) -> bool:
    """Oracle for ends_with_minimum_superpattern: try every choice of six of
    the first n - 1 letters, followed by the last letter, and ask whether it
    relabels to one of the seven minimum 3-superpatterns."""
    seven = {w.letters for w in minimum_superpatterns_ternary()}
    *body, last = word.letters
    return any(
        relabel_canonical(Word((*sub, last), word.alphabet_size)).letters in seven
        for sub in combinations(body, 6)
    )


def quaternary_claim_by_all_subsequences(word: Word) -> bool:
    """Oracle for verify_quaternary_counterexample: the word is a strict
    4-superpattern and none of its length-12 subsequences, every one of the
    C(n, 12) index choices, is a superpattern.  Rests on no bound on the
    least superpattern length."""
    if not is_superpattern(word, 4) or is_superpattern(word.prefix(len(word) - 1), 4):
        return False
    return not any(is_superpattern(Word(sub, word.alphabet_size), 4) for sub in combinations(word.letters, 12))


def series_by_long_division(f: RationalFunction, order: int) -> list[Fraction]:
    """Oracle for RationalFunction.series_coefficients: Maclaurin coefficients
    c_0..c_order by long division in Fractions,
    c_n = (a_n - sum_{j>=1} b_j c_{n-j}) / b_0."""
    a, b = f.numerator.coefficients, f.denominator.coefficients
    if b[0] == 0:
        raise ValueError("series expansion needs a nonzero constant term in the denominator")
    out: list[Fraction] = []
    for n in range(order + 1):
        acc = a[n] if n < len(a) else Fraction(0)
        for j in range(1, min(n, len(b) - 1) + 1):
            acc -= b[j] * out[n - j]
        out.append(acc / b[0])
    return out


def tau_online(letters: Iterable[int], k: int) -> int:
    """Oracle for the simulator's stopping rule: consume letters one at a time
    and return the first length at which the consumed prefix is a
    k-superpattern.

    It keeps the list of still-missing patterns and, per letter, rechecks
    containment of just those against the whole prefix by the backtracking
    search, without the automaton.
    Raises ValueError if the stream ends first; callers bound the stream.
    """
    missing = list(enumerate_preferential_arrangements(k))
    prefix: list[int] = []
    for t, a in enumerate(letters, 1):
        if a < 1:
            raise ValueError(f"letters must be positive, got {a}")
        prefix.append(a)
        table = occurrences(prefix)
        missing = [p for p in missing if embedding_in_table(table, p) is None]
        if not missing:
            return t
    raise ValueError("letter stream ended before the prefix became a superpattern")


def letters_of_bytes(d: int) -> list[tuple[int, ...]]:
    """Oracle for the simulator's byte decoding: the letters each byte value
    0..255 stands for.  A byte carries j base-d digits, j the most (at most
    8) that 256 values hold; a byte below the largest multiple of d^j that
    fits stands for the digits of its residue mod d^j, least significant
    first, each plus one, and any other byte for nothing."""
    j = max(i for i in range(1, 9) if d**i <= 256)
    accepted = 256 // d**j * d**j
    return [tuple(b // d**i % d + 1 for i in range(j)) if b < accepted else () for b in range(256)]


def byte_entry_by_letters(
    rows: list[tuple[int, ...]], accept: int, letters: list[tuple[int, ...]], state: int, byte: int
) -> tuple[int, tuple[int, ...]]:
    """Oracle for one entry of the simulator's byte table: step the minimal
    DFA (`rows`, `accept`) through the letters `byte` stands for (`letters`,
    from letters_of_bytes), one at a time, restarting at state 0 on
    acceptance.  Returns the end state and the 1-based offsets at which
    trials finish."""
    end, finishes = state, []
    for o, a in enumerate(letters[byte], 1):
        end = rows[end][a - 1]
        if end == accept:
            end = 0
            finishes.append(o)
    return end, tuple(finishes)


def simulate_tau_per_letter(d: int, k: int, trials: int, seed: int) -> SimSummary:
    """Oracle for simulate_tau: the same blocks, seeds and letter stream, read
    one letter at a time through a lazy automaton of its own, with no byte
    table and no minimisation."""
    auto = get_automaton(d, k)
    letters = letters_of_bytes(d)
    histogram: dict[int, int] = {}
    for block_index, block_start in enumerate(range(0, trials, _TRIALS_PER_BLOCK)):
        remaining = min(_TRIALS_PER_BLOCK, trials - block_start)
        draw = partial(random.Random(_block_seed(seed, block_index)).randbytes, _CHUNK_BYTES)
        state = t = 0
        for a in chain.from_iterable(map(letters.__getitem__, chain.from_iterable(iter(draw, None)))):
            t += 1
            state = auto.step(state, a)
            if auto.accepting[state]:
                histogram[t] = histogram.get(t, 0) + 1
                remaining -= 1
                if not remaining:
                    break
                state = t = 0
    mean = Fraction(sum(n * c for n, c in histogram.items()), trials)
    variance = sum(c * (n - mean) ** 2 for n, c in histogram.items()) / (trials - 1) if trials > 1 else Fraction(0)
    return SimSummary(
        d=d,
        k=k,
        trials=trials,
        seed=seed,
        sample_mean=float(mean),
        sample_variance=float(variance),
        histogram=dict(sorted(histogram.items())),
    )


class PerInstanceAutomaton:
    """Oracle for ContainmentAutomaton: the same states, numbered in the same
    order, keyed by (mask of contained patterns, one progress byte per
    pattern instance), with every instance stepped in a Python loop on every
    new transition."""

    def __init__(self, d: int, k: int):
        self.d = d
        self.k = k
        self.patterns = tuple(enumerate_preferential_arrangements(k))
        self._instances: list[tuple[int, tuple[int, ...]]] = []
        self._by_pattern: list[list[int]] = []
        for pi, p in enumerate(self.patterns):
            idxs = []
            for values in combinations(range(1, d + 1), p.rank_count()):
                idxs.append(len(self._instances))
                self._instances.append((pi, tuple(values[r - 1] for r in p.letters)))
            self._by_pattern.append(idxs)
        self._all_contained = (1 << len(self.patterns)) - 1
        start = (0, bytes(len(self._instances)))
        self._state_ids = {start: 0}
        self._state_keys = [start]
        self.transitions = [[-1] * (d + 1)]
        self.accepting = [self._all_contained == 0]

    @property
    def state_count(self) -> int:
        return len(self._state_keys)

    def step(self, state: int, letter: int) -> int:
        nxt = self.transitions[state][letter]
        if nxt >= 0:
            return nxt
        mask, progress = self._state_keys[state]
        k = self.k
        new_progress = bytearray(progress)
        completed = []
        for idx, (pi, inst) in enumerate(self._instances):
            if (mask >> pi) & 1:
                continue
            pr = new_progress[idx]
            if pr < k and inst[pr] == letter:
                pr += 1
                new_progress[idx] = pr
                if pr == k:
                    mask |= 1 << pi
                    completed.append(pi)
        for pi in completed:
            for idx in self._by_pattern[pi]:
                new_progress[idx] = k
        key = (mask, bytes(new_progress))
        nxt = self._state_ids.get(key)
        if nxt is None:
            nxt = len(self._state_keys)
            self._state_ids[key] = nxt
            self._state_keys.append(key)
            self.transitions.append([-1] * (self.d + 1))
            self.accepting.append(mask == self._all_contained)
        self.transitions[state][letter] = nxt
        return nxt


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


def min_length_bfs(k: int, d: int) -> int:
    """Oracle for min_superpattern_length: breadth-first reachability over
    the raw automaton states of min(d, n_max) letters, for n_max the known
    bound k^2 - 2k + 4 (1 and 3 for k = 1 and 2).  The first depth at which
    an accepting state appears is the least superpattern length."""
    enumerate_preferential_arrangements(k)
    if d < 1:
        raise ValueError("alphabet size must be at least 1")
    if k > d:
        raise ValueError(f"no superpattern over d={d} for k={k}")
    n_max = 1 if k == 1 else 3 if k == 2 else k * k - 2 * k + 4
    width = min(d, n_max)
    auto = get_automaton(width, k)
    frontier = [0]
    seen = {0}
    for depth in range(1, n_max + 1):
        next_frontier = []
        for state in frontier:
            for a in range(1, width + 1):
                t = auto.step(state, a)
                if auto.accepting[t]:
                    return depth
                if t not in seen:
                    seen.add(t)
                    next_frontier.append(t)
        frontier = next_frontier
    raise AssertionError(f"no k={k} superpattern of length <= {n_max} over d={d}")


def strict_count_upto_iso_by_terms(n: int) -> int:
    """Oracle for the s_a column of count_formulas: the paper's sum over
    lengths m = 7..n of s_mu(m) C(n-2, m-2), one binomial term at a time."""
    return sum(((m - 4) ** 2 - 2) * comb(n - 2, m - 2) for m in range(7, n + 1))


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
