"""Incremental superpattern detection compiled to a lazy DFA.

Whether a prefix is a k-superpattern depends only on the greedy progress of
each pattern's instances: a pattern with m ranks instantiates as C(d, m)
words, one per increasing choice of values for its ranks, d**k over all
patterns, and greedy progress is exact for subsequence matching.  Each
pattern's instances are stepped by its one-pattern bit-parallel matcher
(`patterns._Matcher`), the one engine that reads pattern instances.  A state
is one component per pattern, its matcher's state interned as a small id,
with id 0 for "contained".  A component's successor on a letter depends on
its id alone, so each pattern keeps one dict per letter of the successors
filled so far, and states and transitions are interned in turn, which makes
a repeated step one table lookup.  Nothing is reserved ahead of use: a new
state shares one blank transition row until it is first stepped.  The
matchers' masks are built once per automaton, about 4 MiB at the largest,
(256, 2).  The word-space DP (`classify._WordSpace`) steps these product
states where d**k or k**d, the minimal DFA's state floor, passes 256; below,
it steps the minimal DFA that `_dfa` joins from each pattern's component
closed alone (`closed_component`, as lists of its own), which the
simulator's byte table is built from too.

An automaton lists its patterns through `patterns._capped_patterns`, so it
refuses a long pattern or too many instances before it builds anything.  It
refuses to intern a state past SEARCH_STATE_BUDGET or a component id past
_MAX_COMPONENTS, each read when used.  get_automaton alone makes automata, a
new one on each call that its caller owns and no module keeps.  Queries on
one word run the matchers of `patterns` over the whole word instead, and
intern nothing.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem
from struct import Struct
from typing import Iterable, Optional

from .patterns import BudgetExceededError, _capped_patterns, _Matcher

__all__ = ["ContainmentAutomaton", "get_automaton"]

# Most states an automaton may intern; read when a state is interned.
# Counts and listings both stop here: (7, 3) words of length 7 and (5, 4)
# words of length 9 need more.
SEARCH_STATE_BUDGET = 500_000

# Component ids are packed two bytes each into a state's key.
_MAX_COMPONENTS = 2**16
# The id of a contained pattern; interned ids are 1 and up.
_CONTAINED = 0


class ContainmentAutomaton:
    """Tracks which length-k patterns a growing word over {1..d} contains.

    States are opaque ints; 0 is the empty-word state.  ``transitions`` and
    ``accepting`` are exposed for hot loops (read-only by convention):
    ``transitions[s][a]`` is the successor of state s on letter a, or -1 when
    not built yet (call step() to build it); states never stepped share one
    blank row.  A state's key packs one component id per pattern; component
    id 0 means the pattern is contained, and the state accepts when every
    component is 0.  Raises ValueError for k past MAX_PATTERN_LENGTH, first;
    BudgetExceededError when d**k exceeds MAX_INSTANCES, and when a step
    would intern a state past SEARCH_STATE_BUDGET or a component id past
    _MAX_COMPONENTS.
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        self.patterns = _capped_patterns(d, k)
        self.d = d
        self.k = k
        # Per pattern: its one-pattern matcher, and the matcher states it has
        # interned, by component id.  Id 0 is "contained" and has no state of
        # its own; id 1 is the empty word's, the matcher's start.
        self._matchers = [_Matcher(d, k, [p.letters]) for p in self.patterns]
        self._components: list[list[Optional[int]]] = [[None, m.low] for m in self._matchers]
        self._component_ids: list[dict[int, int]] = [{m.low: 1} for m in self._matchers]
        # columns[a][p][c]: component id of pattern p after letter a from
        # component c, for each c filled so far.  Slot 0 is unused, as in the
        # rows below.
        self._columns: list[list[dict[int, int]]] = [
            [{_CONTAINED: _CONTAINED} for _ in self.patterns] for _ in range(d + 1)
        ]
        packing = Struct(f"{len(self.patterns)}H")
        self._pack, self._unpack = packing.pack, packing.unpack
        start = self._pack(*[1] * len(self.patterns))
        self._accept_key = bytes(len(start))
        self._state_ids: dict[bytes, int] = {start: 0}
        self._state_keys: list[bytes] = [start]
        # Slot 0 of each row is unused so rows index directly by letter value.
        self._blank = [-1] * (d + 1)
        self.transitions: list[list[int]] = [self._blank]
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
        except KeyError:
            # Some component has not read this letter yet.
            new_key = self._pack(*[self._fill(letter, pi, c) for pi, c in enumerate(ids)])
        nxt = self._state_ids.get(new_key)
        if nxt is None:
            nxt = len(self._state_keys)
            if nxt >= SEARCH_STATE_BUDGET:
                raise BudgetExceededError(
                    f"the automaton for k={self.k}, d={self.d} exceeded {SEARCH_STATE_BUDGET} states"
                )
            self._state_ids[new_key] = nxt
            self._state_keys.append(new_key)
            self.transitions.append(self._blank)
            self.accepting.append(new_key == self._accept_key)
        row = self.transitions[state]
        if row is self._blank:
            row = self.transitions[state] = row.copy()
        row[letter] = nxt
        return nxt

    def _fill(self, letter: int, pi: int, component: int) -> int:
        """Pattern pi's component after one letter, from the letter's column,
        which a first read fills by one step of the matcher."""
        column = self._columns[letter][pi]
        if component in column:
            return column[component]
        matcher = self._matchers[pi]
        progress = matcher.run((letter,), self._components[pi][component])
        if not matcher.missing(progress):
            # Progress of sibling instances is irrelevant once the pattern
            # is contained, so all such states are one id.
            column[component] = _CONTAINED
            return _CONTAINED
        ids = self._component_ids[pi]
        nxt = ids.get(progress)
        if nxt is None:
            nxt = len(self._components[pi])
            if nxt == _MAX_COMPONENTS:
                raise self._overflow(pi)
            ids[progress] = nxt
            self._components[pi].append(progress)
        column[component] = nxt
        return nxt

    def closed_component(self, pi: int) -> list[list[int]]:
        """Pattern pi's component with every id reachable from the empty
        word's id 1 filled in, as one new list per letter: ``columns[a -
        1][c]`` is the id after letter a from id c, and the contained id 0
        loops to itself.  Forms no state."""
        # The component of 1...1 has one id for each count 0..k-1 of each
        # letter, k^d beside the contained id, so past the cap it is refused
        # before any fill.
        if max(self.patterns[pi].letters) == 1 and self.k**self.d >= _MAX_COMPONENTS:
            raise self._overflow(pi)
        component = 1
        while component < len(self._components[pi]):
            for a in range(1, self.d + 1):
                self._fill(a, pi, component)
            component += 1
        return [list(map(column[pi].__getitem__, range(component))) for column in self._columns[1:]]

    def _overflow(self, pi: int) -> BudgetExceededError:
        """The refusal of a component id past _MAX_COMPONENTS for pattern pi."""
        return BudgetExceededError(
            f"the automaton for k={self.k}, d={self.d} exceeded {_MAX_COMPONENTS}"
            f" progress vectors for pattern {self.patterns[pi]}"
        )

    def scan(self, letters: Iterable[int]) -> int:
        """State after reading a whole letter sequence from the empty word."""
        return reduce(self.step, letters, 0)


def get_automaton(d: int, k: int) -> ContainmentAutomaton:
    """A new automaton for (d, k), owned by its caller."""
    return ContainmentAutomaton(d, k)
