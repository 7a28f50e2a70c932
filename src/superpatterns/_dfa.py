"""The containment automaton's minimal DFA, for the word-space DP and the
simulator.

`close_and_minimise` never builds the full product automaton.  It makes an
automaton of its own (`get_automaton`), closes each pattern's component of
it alone and merges its equivalent states by Moore refinement (Hopcroft 1971
is the faster variant of the same partition).  It then joins the minimised
components one at a time, smallest first: each join closes the product of
the DFA so far and one component by breadth-first search from the pair of
start states, and is minimised again before the next.  A product state
accepts when both of its parts do; a trial ends there, so what the word does
next does not matter, and it loops to itself on every letter.  The minimal
DFA is unique up to renaming, so this is the DFA the full product would
minimise to.  A component's states are the interned states of its
pattern's bit-parallel matcher (`patterns._Matcher`), so this module steps
no pattern instance itself.  Every product is held to STATE_BUDGET states;
the components are bounded by the automaton's own cap on a pattern's
progress vectors, its matcher states.  Each (d, k) is built once per
process and only its DFA is kept, not the automaton it was closed from: the
word-space DP of `classify` steps it over small alphabets, and the simulator
builds its byte table from it.
"""

from __future__ import annotations

from .automaton import BudgetExceededError, _capped_patterns, get_automaton

# Most states of any product a join builds.  The largest products are 25,889
# states for (5,3), whose full product has 73,886, and 53,260 for (4,4);
# (6,3) needs 206,793.
STATE_BUDGET = 100_000

# A DFA as (rows, start, accept): rows[s][a - 1] is the successor of state s
# on letter a, and accept is the one accepting state, which loops to itself.
Dfa = tuple[list[tuple[int, ...]], int, int]

# The minimal DFA of each (d, k) built so far, as close_and_minimise returns it.
_built: dict[tuple[int, int], tuple[list[tuple[int, ...]], int]] = {}


def _refine(columns: list, block: list[int]) -> tuple[list[int], int]:
    """One Moore round: two states stay in one block when they share a block
    and, letter by letter, their successors do (``columns[a - 1][s]`` is
    state s's successor on letter a).  Blocks are numbered in order of their
    first state, so state 0's block is 0.  Returns (new blocks, number of
    blocks)."""
    keys = list(zip(block, *(map(block.__getitem__, column) for column in columns)))
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return list(map(ids.__getitem__, keys)), len(ids)


def _minimise(columns: list, accepting: list[bool]) -> tuple[list[int], int]:
    """Moore refinement from the split into accepting and other states, until
    a round splits no block; accepting states must loop to themselves.
    Returns (block of each state, number of blocks)."""
    block = [int(a) for a in accepting]
    count = len(set(block))
    while True:
        block, refined = _refine(columns, block)
        if refined == count:
            return block, count
        count = refined


def _minimal(columns: list, accepting: list[bool], start: int = 0) -> Dfa:
    """The DFA whose states are the Moore blocks."""
    block, count = _minimise(columns, accepting)
    # Any state of a block stands for it; the dict keeps the blocks in order.
    members = list({b: s for s, b in enumerate(block)}.values())
    rows = list(zip(*([block[column[s]] for s in members] for column in columns)))
    return rows, block[start], block[accepting.index(True)]


def _join(d: int, k: int, left: Dfa, right: Dfa) -> tuple[list[list[int]], list[bool]]:
    """The product of two DFAs, closed by breadth-first search from the pair
    of start states, which becomes state 0; the pair of accepting states is
    the one accepting state, and loops to itself as both parts do.  Returns
    (columns, accepting), ``columns[a - 1][s]`` being state s's successor on
    letter a, and raises BudgetExceededError past STATE_BUDGET states."""
    rows_a, start_a, accept_a = left
    rows_b, start_b, accept_b = right
    # State (a, b) is keyed a * width + b.
    width = len(rows_b)
    keys = [start_a * width + start_b]
    ids = {keys[0]: 0}
    columns: list[list[int]] = [[] for _ in range(d)]
    for key in keys:
        a, b = divmod(key, width)
        for p, q, column in zip(rows_a[a], rows_b[b], columns):
            key = p * width + q
            t = ids.get(key)
            if t is None:
                t = ids[key] = len(keys)
                keys.append(key)
            column.append(t)
        if len(keys) > STATE_BUDGET:
            raise BudgetExceededError(f"the automaton for k={k}, d={d} exceeded {STATE_BUDGET} states")
    both = accept_a * width + accept_b
    return columns, [key == both for key in keys]


def close_and_minimise(d: int, k: int) -> tuple[list[tuple[int, ...]], int]:
    """The minimal DFA of the (d, k) automaton, built once per process and
    shared; needs k <= d, so that some state accepts.

    Returns (rows, accept), the minimal DFA of "the prefix is a
    k-superpattern" over {1..d}: state 0 reads the empty word,
    ``rows[s][a - 1]`` is the successor of state s on letter a, and
    ``accept`` is the one accepting state, which is absorbing.

    The automaton's own refusals (pattern length, then instances) come
    first, and no automaton is built for a refused (d, k).  Raises
    BudgetExceededError once a product holds more than STATE_BUDGET states,
    or a component more progress vectors than the automaton allows, and
    before any closure work when it must: the pattern 1...1 alone tells
    apart every count 0..k-1 of each letter, so its minimised component, and
    every product it joins, has k^d states before acceptance."""
    if k > d:
        raise ValueError(f"no state accepts when k > d: got d={d}, k={k}")
    built = _built.get((d, k))
    if built is not None:
        return built
    _capped_patterns(d, k)
    if k**d > STATE_BUDGET:
        raise BudgetExceededError(
            f"closing the automaton for k={k}, d={d} needs at least k^d = {k**d} states,"
            f" over the budget of {STATE_BUDGET}"
        )
    auto = get_automaton(d, k)
    components = []
    for pi in range(len(auto.patterns)):
        columns = auto.closed_component(pi)
        # The contained id 0 accepts, and the empty word's id 1 starts.
        components.append(_minimal(columns, [c == 0 for c in range(len(columns[0]))], 1))
    # The product of no components: one state, accepting every word.
    dfa: Dfa = [(0,) * d], 0, 0
    for component in sorted(components, key=lambda c: len(c[0])):
        dfa = _minimal(*_join(d, k, dfa, component))
    rows, _, accept = dfa
    built = _built[d, k] = rows, accept
    return built
