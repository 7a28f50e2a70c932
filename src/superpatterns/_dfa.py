"""The containment automaton closed and minimised, for the simulator.

`close_and_minimise` builds every state of a fresh `ContainmentAutomaton(d, k)`
that a word reaches before it becomes a superpattern, by breadth-first search
through `step` under a state budget, and then merges equivalent states by
Moore refinement (Hopcroft 1971 is the faster variant of the same partition).
Every accepting state falls into one block: a trial ends there, so what the
word does next does not matter, and that block loops to itself on every
letter.  The full automaton is dropped; `minimal_dfa` keeps only the small
table, once per (d, k).
"""

from __future__ import annotations

from .automaton import BudgetExceededError, ContainmentAutomaton

# Enough for (5,3), whose closure has 73,886 states; (4,4) and (6,3) exceed it.
STATE_BUDGET = 100_000


class MinimalDfa:
    """Minimal DFA of "the prefix is a k-superpattern" over {1..d}.

    State 0 reads the empty word; ``rows[s][a]`` is the successor of state s
    on letter a (slot 0 is unused, as in the automaton), and ``accept`` is the
    one accepting state, which is absorbing.
    """

    __slots__ = ("rows", "accept")

    def __init__(self, rows: tuple[tuple[int, ...], ...], accept: int):
        self.rows = rows
        self.accept = accept


def _close(d: int, k: int, state_budget: int) -> ContainmentAutomaton:
    """A fresh automaton with every state reachable before acceptance built."""
    auto = ContainmentAutomaton(d, k)
    step = auto.step
    letters = range(1, d + 1)
    state = 0
    # States are numbered as they are found, so visiting them in number order
    # is a breadth-first search.
    while state < auto.state_count:
        if not auto.accepting[state]:
            for a in letters:
                step(state, a)
            if auto.state_count > state_budget:
                raise BudgetExceededError(
                    f"closing the automaton for k={k}, d={d} exceeded {state_budget} states"
                )
        state += 1
    return auto


def _refine(transitions: list[list[int]], accepting: list[bool], block: list[int]) -> tuple[list[int], int]:
    """One Moore round: two states stay in one block when they share a block
    and, letter by letter, their successors do.  Accepting states are compared
    by block only.  Blocks are numbered in order of their first state, so the
    start state's block is 0.  Returns (new blocks, number of blocks)."""
    ids: dict[tuple[int, ...], int] = {}
    refined = [
        ids.setdefault(
            (block[s],) if accepting[s] else (block[s], *map(block.__getitem__, row[1:])),
            len(ids),
        )
        for s, row in enumerate(transitions)
    ]
    return refined, len(ids)


def _minimise(transitions: list[list[int]], accepting: list[bool]) -> tuple[list[int], int]:
    """Moore refinement from the split into accepting and other states, until
    a round splits no block.  Returns (block of each state, number of blocks)."""
    block = [int(a) for a in accepting]
    count = len(set(block))
    while True:
        block, refined = _refine(transitions, accepting, block)
        if refined == count:
            return block, count
        count = refined


def close_and_minimise(d: int, k: int, *, state_budget: int = STATE_BUDGET) -> MinimalDfa:
    """Close the (d, k) automaton and Moore-minimise it; needs k <= d, so that
    some state accepts.  Raises BudgetExceededError once the closure holds
    more than state_budget states."""
    auto = _close(d, k, state_budget)
    transitions, accepting = auto.transitions, auto.accepting
    block, count = _minimise(transitions, accepting)
    accept = block[accepting.index(True)]
    rows: list[tuple[int, ...]] = [()] * count
    for s, row in enumerate(transitions):
        if not rows[block[s]]:
            rows[block[s]] = (-1, *(accept if accepting[s] else block[t] for t in row[1:]))
    return MinimalDfa(tuple(rows), accept)


_cache: dict[tuple[int, int], MinimalDfa] = {}


def minimal_dfa(d: int, k: int) -> MinimalDfa:
    """The minimal (d, k) DFA under STATE_BUDGET, built once and kept."""
    key = (d, k)
    dfa = _cache.get(key)
    if dfa is None:
        dfa = _cache[key] = close_and_minimise(d, k, state_budget=STATE_BUDGET)
    return dfa
