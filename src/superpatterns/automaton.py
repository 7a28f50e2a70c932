"""Incremental superpattern detection compiled to a lazy DFA.

Deciding "is this prefix a superpattern for length-k patterns?" letter by
letter only needs, per canonical pattern, the greedy matching progress of each
of its concrete instantiations (a pattern with m distinct ranks instantiates
as C(d, m) words over the alphabet, one per strictly increasing choice of
values for the ranks).  Greedy progress is optimal for single-word subsequence
matching, so this state is exact.

States are interned and transitions cached, which turns the letter update into
a single table lookup after the first visit.  The exhaustive scans and the
minimum-length search share one automaton per (d, k); the simulator instead
reads a closed and minimised copy (`_dfa`), built from a fresh automaton and
then dropped.  The verdicts are cross-checked against the per-pattern
backtracking route by the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .patterns import Pattern, enumerate_preferential_arrangements

__all__ = ["ContainmentAutomaton", "get_automaton"]


class ContainmentAutomaton:
    """Tracks which length-k patterns a growing word over {1..d} contains.

    States are opaque ints; 0 is the empty-word state.  ``transitions`` and
    ``accepting`` are exposed for hot loops (read-only by convention):
    ``transitions[s][a]`` is the successor of state s on letter a, or -1 when
    not built yet (call step() to build it).
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        self.d = d
        self.k = k
        self.patterns: tuple[Pattern, ...] = tuple(enumerate_preferential_arrangements(k))
        instances: list[tuple[int, tuple[int, ...]]] = []
        by_pattern: list[list[int]] = []
        for pi, p in enumerate(self.patterns):
            ranks = p.letters
            idxs = []
            for values in combinations(range(1, d + 1), p.rank_count()):
                instances.append((pi, tuple(values[r - 1] for r in ranks)))
                idxs.append(len(instances) - 1)
            by_pattern.append(idxs)
        self._instances = instances
        self._by_pattern = by_pattern
        self._all_satisfied = (1 << len(self.patterns)) - 1

        # A state is (satisfied-pattern mask, progress per instance); every
        # progress value is at most k, so the vector packs into bytes.
        start = (0, bytes(len(instances)))
        self._state_ids: dict[tuple[int, bytes], int] = {start: 0}
        self._state_keys: list[tuple[int, bytes]] = [start]
        # Slot 0 of each row is unused so rows index directly by letter value.
        self.transitions: list[list[int]] = [[-1] * (d + 1)]
        self.accepting: list[bool] = [self._all_satisfied == 0]

    @property
    def state_count(self) -> int:
        return len(self._state_keys)

    def step(self, state: int, letter: int) -> int:
        """Successor state after reading one letter (1-based)."""
        nxt = self.transitions[state][letter]
        if nxt >= 0:
            return nxt
        return self._expand(state, letter)

    def _expand(self, state: int, letter: int) -> int:
        mask, progress = self._state_keys[state]
        k = self.k
        new_progress = bytearray(progress)
        completed: list[int] = []
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
            # Progress of sibling instances is irrelevant once the pattern is
            # contained; pinning them to k merges equivalent states.
            for idx in self._by_pattern[pi]:
                new_progress[idx] = k
        key = (mask, bytes(new_progress))
        nxt = self._state_ids.get(key)
        if nxt is None:
            nxt = len(self._state_keys)
            self._state_ids[key] = nxt
            self._state_keys.append(key)
            self.transitions.append([-1] * (self.d + 1))
            self.accepting.append(mask == self._all_satisfied)
        self.transitions[state][letter] = nxt
        return nxt

    def missing_pattern_indices(self, state: int) -> list[int]:
        """Indices into ``patterns`` of the patterns not yet contained."""
        mask = self._state_keys[state][0]
        return [pi for pi in range(len(self.patterns)) if not (mask >> pi) & 1]

    def scan(self, letters: Iterable[int], state: int = 0) -> int:
        """Final state after reading a whole letter sequence."""
        for a in letters:
            state = self.step(state, a)
        return state

    def first_superpattern_time(self, letters: Iterable[int]) -> Optional[int]:
        """1-based index of the first prefix that is a superpattern, if any."""
        state = 0
        for t, a in enumerate(letters, 1):
            state = self.step(state, a)
            if self.accepting[state]:
                return t
        return None


_cache: dict[tuple[int, int], ContainmentAutomaton] = {}


def get_automaton(d: int, k: int) -> ContainmentAutomaton:
    """Shared automaton for (d, k); built once and reused across operations."""
    key = (d, k)
    auto = _cache.get(key)
    if auto is None:
        auto = _cache[key] = ContainmentAutomaton(d, k)
    return auto
