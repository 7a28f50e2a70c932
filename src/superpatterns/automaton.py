"""Incremental superpattern detection compiled to a lazy DFA.

Whether a prefix is a k-superpattern depends only on the greedy progress of
each pattern's instances: a pattern with m ranks instantiates as C(d, m)
words, one per increasing choice of values for its ranks, d**k over all
patterns, and greedy progress is exact for subsequence matching.  Each
pattern's instances are stepped by its one-pattern bit-parallel matcher
(`patterns._Matcher`), the one engine that reads pattern instances.  A state
is one component per pattern, its matcher's state interned as a small id,
with id 0 for "contained".  A component's successor on a letter depends on
its id alone, so each pattern keeps one lazily filled column per letter,
and states and transitions are interned in turn, which makes a repeated
step one table lookup.  The matchers' masks are built once per automaton,
about 4 MiB at the largest, (256, 2).  Past d**k = 64 instances the
word-space DP (`classify._WordSpace`) steps these product states; up to it,
the DP steps the minimal DFA that `_dfa` joins from each pattern's component
closed alone (`closed_component`), which the simulator's byte table is built
from too.

The automaton owns its bounds.  It lists its patterns, which refuses a
pattern past MAX_PATTERN_LENGTH, before it checks the cap on instances, both
in `_capped_patterns`, which `_dfa` and the containment matchers of
`patterns` run before they build anything.  It refuses to intern a state
past SEARCH_STATE_BUDGET or a component id past _MAX_COMPONENTS, each read
when used.  get_automaton alone makes automata, a new one on each call that
its caller owns and no module keeps.  Queries on one word run the matchers
of `patterns` over the whole word instead, and intern nothing.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem
from struct import Struct, error as StructError
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .patterns import Pattern

__all__ = ["BudgetExceededError", "ContainmentAutomaton", "get_automaton"]

# Most pattern instances (d**k) an automaton may track; each state step may
# touch all of them, and (10,5) alone has 100,000.
MAX_INSTANCES = 2**16

# Most states an automaton may intern; read when a state is interned.
# Counts and listings both stop here: (7, 3) words of length 7 and (4, 4)
# words of length 12 need more.
SEARCH_STATE_BUDGET = 500_000

# Component ids are packed two bytes each into a state's key.
_MAX_COMPONENTS = 2**16
# Column entries that are no interned id, which are 1 and up.
_CONTAINED = 0
_UNFILLED = -1


class BudgetExceededError(RuntimeError):
    """An enumeration would visit more words or states than its cap allows."""


class ContainmentAutomaton:
    """Tracks which length-k patterns a growing word over {1..d} contains.

    States are opaque ints; 0 is the empty-word state.  ``transitions`` and
    ``accepting`` are exposed for hot loops (read-only by convention):
    ``transitions[s][a]`` is the successor of state s on letter a, or -1 when
    not built yet (call step() to build it).  A state's key packs one
    component id per pattern; component id 0 means the pattern is contained,
    and the state accepts when every component is 0.  Raises ValueError for
    k past MAX_PATTERN_LENGTH, first; BudgetExceededError when d**k exceeds
    MAX_INSTANCES, and when a step would intern a state past
    SEARCH_STATE_BUDGET or a component id past _MAX_COMPONENTS.
    """

    def __init__(self, d: int, k: int):
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        self.patterns = _capped_patterns(d, k)
        self.d = d
        self.k = k
        # Imported here: the patterns module imports this one first.
        from .patterns import _Matcher

        # Per pattern: its one-pattern matcher, and the matcher states it has
        # interned, by component id.  Id 0 is "contained" and has no state of
        # its own; id 1 is the empty word's, the matcher's start.
        self._matchers = [_Matcher(d, k, [p.letters]) for p in self.patterns]
        self._components: list[list[Optional[int]]] = [[None, m.low] for m in self._matchers]
        self._component_ids: list[dict[int, int]] = [{m.low: 1} for m in self._matchers]
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
            if nxt >= SEARCH_STATE_BUDGET:
                raise BudgetExceededError(
                    f"the automaton for k={self.k}, d={self.d} exceeded {SEARCH_STATE_BUDGET} states"
                )
            self._state_ids[new_key] = nxt
            self._state_keys.append(new_key)
            self.transitions.append([-1] * (self.d + 1))
            self.accepting.append(new_key == self._accept_key)
        self.transitions[state][letter] = nxt
        return nxt

    def _fill(self, columns: list[list[int]], pi: int, component: int, letter: int) -> int:
        """Pattern pi's component after one letter, by one step of its
        matcher; the result is stored in the letter's column."""
        matcher = self._matchers[pi]
        progress = matcher.run((letter,), self._components[pi][component])
        if not matcher.missing(progress):
            # Progress of sibling instances is irrelevant once the pattern
            # is contained, so all such states are one id.
            columns[pi][component] = _CONTAINED
            return _CONTAINED
        ids = self._component_ids[pi]
        nxt = ids.get(progress)
        if nxt is None:
            nxt = len(self._components[pi])
            if nxt == _MAX_COMPONENTS:
                raise BudgetExceededError(
                    f"the automaton for k={self.k}, d={self.d} exceeded {_MAX_COMPONENTS}"
                    f" progress vectors for pattern {self.patterns[pi]}"
                )
            ids[progress] = nxt
            self._components[pi].append(progress)
            for other in self._columns:
                other[pi].append(_UNFILLED)
        columns[pi][component] = nxt
        return nxt

    def closed_component(self, pi: int) -> list[list[int]]:
        """Pattern pi's component with every id reachable from the empty
        word's id 1 filled in, as one column per letter, the automaton's own
        (read-only): ``columns[a - 1][c]`` is the id after letter a from id
        c, and the contained id 0 loops to itself.  Forms no state."""
        columns = [column[pi] for column in self._columns]
        component = 1
        while component < len(self._components[pi]):
            for a in range(1, self.d + 1):
                if columns[a][component] == _UNFILLED:
                    self._fill(self._columns[a], pi, component, a)
            component += 1
        return columns[1:]

    def scan(self, letters: Iterable[int]) -> int:
        """State after reading a whole letter sequence from the empty word."""
        return reduce(self.step, letters, 0)


def _capped_patterns(d: int, k: int) -> tuple[Pattern, ...]:
    """The canonical length-k patterns, after the automaton's two refusals
    in their order: ValueError for k past MAX_PATTERN_LENGTH, from listing
    the patterns, then BudgetExceededError for d**k past MAX_INSTANCES."""
    # Imported here: the patterns module imports this one first.
    from .patterns import enumerate_preferential_arrangements

    patterns = tuple(enumerate_preferential_arrangements(k))
    if d**k > MAX_INSTANCES:
        raise BudgetExceededError(
            f"the automaton for k={k}, d={d} would track d**k pattern instances,"
            f" over the cap of {MAX_INSTANCES}"
        )
    return patterns


def get_automaton(d: int, k: int) -> ContainmentAutomaton:
    """A new automaton for (d, k), owned by its caller."""
    return ContainmentAutomaton(d, k)
