"""The containment automaton closed and minimised, for the simulator.

`close_and_minimise` builds every state of a fresh `ContainmentAutomaton(d, k)`
that a word reaches before it becomes a superpattern, by breadth-first search
through `step`, and then merges equivalent states by Moore refinement
(Hopcroft 1971 is the faster variant of the same partition).  Every accepting
state falls into one block: a trial ends there, so what the word does next
does not matter, and that block loops to itself on every letter.  The full
automaton is dropped and only the small table is returned; the simulator
reads it once per (d, k) to build its byte table, and keeps only that.  The
automaton is made with STATE_BUDGET as its state budget, so it is the
automaton that stops an overlong closure.
"""

from __future__ import annotations

from .automaton import MAX_INSTANCES, BudgetExceededError, ContainmentAutomaton

# Enough for (5,3), whose closure has 73,886 states; (4,4) and (6,3) exceed it.
STATE_BUDGET = 100_000


def _close(d: int, k: int) -> ContainmentAutomaton:
    """A fresh automaton with every state reachable before acceptance built;
    it raises BudgetExceededError past STATE_BUDGET states."""
    auto = ContainmentAutomaton(d, k, STATE_BUDGET)
    step = auto.step
    letters = range(1, d + 1)
    state = 0
    # States are numbered as they are found, so visiting them in number order
    # is a breadth-first search.
    while state < auto.state_count:
        if not auto.accepting[state]:
            for a in letters:
                step(state, a)
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


def close_and_minimise(d: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Close the (d, k) automaton and Moore-minimise it; needs k <= d, so that
    some state accepts.

    Returns (rows, accept), the minimal DFA of "the prefix is a
    k-superpattern" over {1..d}: state 0 reads the empty word, ``rows[s][a]``
    is the successor of state s on letter a (slot 0 is unused, as in the
    automaton), and ``accept`` is the one accepting state, which is
    absorbing.

    Raises BudgetExceededError once the closure holds more than STATE_BUDGET
    states, and before any closure work when it must: the pattern 1...1
    alone tells apart every count 0..k-1 of each letter, k^d states that all
    come before acceptance."""
    if k > d:
        raise ValueError(f"no state accepts when k > d: got d={d}, k={k}")
    # Past MAX_INSTANCES the automaton's own constructor refuses first, also at once.
    if k**d > STATE_BUDGET and d**k <= MAX_INSTANCES:
        raise BudgetExceededError(
            f"closing the automaton for k={k}, d={d} needs at least k^d = {k**d} states,"
            f" over the budget of {STATE_BUDGET}"
        )
    auto = _close(d, k)
    transitions, accepting = auto.transitions, auto.accepting
    block, count = _minimise(transitions, accepting)
    accept = block[accepting.index(True)]
    rows: list[tuple[int, ...]] = [()] * count
    for s, row in enumerate(transitions):
        if not rows[block[s]]:
            rows[block[s]] = (-1, *(accept if accepting[s] else block[t] for t in row[1:]))
    return tuple(rows), accept

