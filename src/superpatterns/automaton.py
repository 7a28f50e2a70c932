"""Incremental superpattern detection compiled to a lazy DFA.

Deciding "is this prefix a superpattern for length-k patterns?" letter by
letter only needs, per canonical pattern, the greedy matching progress of each
of its concrete instantiations (a pattern with m distinct ranks instantiates
as C(d, m) words over the alphabet, one per strictly increasing choice of
values for the ranks; over all patterns that is d**k instances).  Greedy
progress is optimal for single-word subsequence matching, so this state is
exact.

The state is a product of one component per pattern: the progress vector of
that pattern's instances, interned per pattern as a small id, with one fixed
id for "contained".  A component's successor on a letter depends only on its
own id, so each pattern keeps one lazily filled column per letter, and a new
transition costs one lookup per pattern; the per-instance step runs only the
first time a (component, letter) pair is met.  States and transitions are
interned and cached in turn, which makes a repeated step a single table
lookup.  The exhaustive scans and the minimum-length search share one
automaton per (d, k); the simulator instead reads a closed and minimised copy
(`_dfa`), built from a fresh automaton and then dropped.  The verdicts are
cross-checked against the per-pattern backtracking route by the test suite.
"""

from __future__ import annotations

from itertools import combinations
from operator import getitem
from struct import Struct, error as StructError
from typing import Iterable, Optional

from .patterns import Pattern, enumerate_preferential_arrangements

__all__ = ["BudgetExceededError", "ContainmentAutomaton", "get_automaton"]

# Most pattern instances (d**k) an automaton may track; each state step may
# touch all of them, and (9,6) alone has 531,441.
MAX_INSTANCES = 2**16

# Component ids are packed two bytes each into a state's key.
_MAX_COMPONENTS = 2**16
_CONTAINED = 0
_UNFILLED = -1


class BudgetExceededError(RuntimeError):
    """An enumeration would visit more words/states than the configured cap."""


class ContainmentAutomaton:
    """Tracks which length-k patterns a growing word over {1..d} contains.

    States are opaque ints; 0 is the empty-word state.  ``transitions`` and
    ``accepting`` are exposed for hot loops (read-only by convention):
    ``transitions[s][a]`` is the successor of state s on letter a, or -1 when
    not built yet (call step() to build it).  A state's key packs one
    component id per pattern; component id 0 means the pattern is contained,
    and the state accepts when every component is 0.  Raises
    BudgetExceededError when d**k exceeds MAX_INSTANCES.
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        # For d >= 2 any k > 16 is over the cap; no need to raise d to it.
        if (d > 1 and k > 16) or d**k > MAX_INSTANCES:
            raise BudgetExceededError(
                f"the automaton for k={k}, d={d} would track d**k pattern instances,"
                f" over the cap of {MAX_INSTANCES}"
            )
        self.d = d
        self.k = k
        self.patterns: tuple[Pattern, ...] = tuple(enumerate_preferential_arrangements(k))
        # Per pattern: its instances, and its interned progress vectors (one
        # byte per instance) by component id.  Id 0 is "contained" and has no
        # vector of its own; id 1 is the empty word's.
        self._instances: list[list[tuple[int, ...]]] = []
        self._components: list[list[Optional[bytes]]] = []
        self._component_ids: list[dict[bytes, int]] = []
        for p in self.patterns:
            ranks = p.letters
            self._instances.append(
                [tuple(values[r - 1] for r in ranks) for values in combinations(range(1, d + 1), p.rank_count())]
            )
            start = bytes(len(self._instances[-1]))
            self._components.append([None, start])
            self._component_ids.append({start: 1})
        # columns[a][p][c]: component id of pattern p after letter a from
        # component c, or _UNFILLED.  Slot 0 is unused, as in the rows below.
        self._columns: list[list[list[int]]] = [
            [[_CONTAINED, _UNFILLED] for _ in self.patterns] for _ in range(d + 1)
        ]
        packing = Struct(f"{len(self.patterns)}H")
        self._pack, self._unpack = packing.pack, packing.unpack
        start = self._pack(*[1] * len(self.patterns))
        self._accept_key = bytes(len(start))
        self._state_ids: dict[bytes, int] = {start: 0}
        self._state_keys: list[bytes] = [start]
        # Slot 0 of each row is unused so rows index directly by letter value.
        self.transitions: list[list[int]] = [[-1] * (d + 1)]
        self.accepting: list[bool] = [start == self._accept_key]

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
        columns = self._columns[letter]
        ids = self._unpack(self._state_keys[state])
        try:
            new_key = self._pack(*map(getitem, columns, ids))
        except StructError:
            # Some column entry is still _UNFILLED, which does not pack.
            new_key = self._pack(
                *(
                    c if c != _UNFILLED else self._fill(columns, pi, ids[pi], letter)
                    for pi, c in enumerate(map(getitem, columns, ids))
                )
            )
        nxt = self._state_ids.get(new_key)
        if nxt is None:
            nxt = len(self._state_keys)
            self._state_ids[new_key] = nxt
            self._state_keys.append(new_key)
            self.transitions.append([-1] * (self.d + 1))
            self.accepting.append(new_key == self._accept_key)
        self.transitions[state][letter] = nxt
        return nxt

    def _fill(self, columns: list[list[int]], pi: int, component: int, letter: int) -> int:
        """Pattern pi's component after one letter, by stepping each instance;
        the result is stored in the letter's column."""
        k = self.k
        progress = bytearray(self._components[pi][component])
        for idx, inst in enumerate(self._instances[pi]):
            pr = progress[idx]
            if inst[pr] == letter:
                if pr + 1 == k:
                    # Progress of sibling instances is irrelevant once the
                    # pattern is contained, so all such vectors are one id.
                    columns[pi][component] = _CONTAINED
                    return _CONTAINED
                progress[idx] = pr + 1
        vector = bytes(progress)
        ids = self._component_ids[pi]
        nxt = ids.get(vector)
        if nxt is None:
            nxt = len(self._components[pi])
            if nxt == _MAX_COMPONENTS:
                raise BudgetExceededError(
                    f"pattern {self.patterns[pi]} for k={k}, d={self.d} exceeded"
                    f" {_MAX_COMPONENTS} progress vectors"
                )
            ids[vector] = nxt
            self._components[pi].append(vector)
            for other in self._columns:
                other[pi].append(_UNFILLED)
        columns[pi][component] = nxt
        return nxt

    def missing_pattern_indices(self, state: int) -> list[int]:
        """Indices into ``patterns`` of the patterns not yet contained."""
        ids = self._unpack(self._state_keys[state])
        return [pi for pi, c in enumerate(ids) if c != _CONTAINED]

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
