from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Optional

from superpatterns import SimSummary, Word, enumerate_preferential_arrangements, get_automaton
from superpatterns.patterns import _find_embedding, _occurrences
from superpatterns.waiting import _CHUNK_BYTES, _TRIALS_PER_BLOCK, _block_seed, _letter_decoder


def all_words(d: int, n: int) -> Iterator[Word]:
    """Every word of length n over {1..d}, in counter order."""
    for letters in product(range(1, d + 1), repeat=n):
        yield Word(letters, d)


def tau_online(letters: Iterable[int], k: int) -> int:
    """Oracle for the simulator's stopping rule: consume letters one at a time
    and return the first length at which the consumed prefix is a
    k-superpattern.

    It keeps the list of still-missing patterns and, per letter, rechecks
    containment of just those against the whole prefix, without the automaton.
    Raises ValueError if the stream ends first; callers bound the stream.
    """
    missing = list(enumerate_preferential_arrangements(k))
    prefix: list[int] = []
    for t, a in enumerate(letters, 1):
        if a < 1:
            raise ValueError(f"letters must be positive, got {a}")
        prefix.append(a)
        table = _occurrences(prefix)
        missing = [p for p in missing if _find_embedding(table, p.letters) is None]
        if not missing:
            return t
    raise ValueError("letter stream ended before the prefix became a superpattern")


def simulate_tau_per_letter(d: int, k: int, trials: int, seed: int) -> SimSummary:
    """Oracle for simulate_tau: the same blocks, seeds and letter stream, read
    one letter at a time through the shared lazy automaton, with no byte
    table and no minimisation."""
    auto = get_automaton(d, k)
    width, expand = _letter_decoder(d)
    histogram: dict[int, int] = {}
    for block_index, block_start in enumerate(range(0, trials, _TRIALS_PER_BLOCK)):
        remaining = min(_TRIALS_PER_BLOCK, trials - block_start)
        draw = partial(random.Random(_block_seed(seed, block_index)).randbytes, _CHUNK_BYTES // width * width)
        state = t = 0
        for a in chain.from_iterable(map(expand, iter(draw, None))):
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

    def missing_pattern_indices(self, state: int) -> list[int]:
        mask = self._state_keys[state][0]
        return [pi for pi in range(len(self.patterns)) if not (mask >> pi) & 1]


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
