from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns import (
    BudgetExceededError,
    ContainmentAutomaton,
    Word,
    count_strict_superpatterns,
    enumerate_preferential_arrangements,
    get_automaton,
    is_superpattern,
    iter_superpatterns,
    missing_patterns,
    simulate_tau,
    strict_counts_by_length,
)
from superpatterns import _dfa, automaton
from superpatterns._dfa import close_and_minimise
from superpatterns.classify import _ANY, _WordSpace
from superpatterns.cli import main
from superpatterns.patterns import MAX_INSTANCES, _matcher

from conftest import PerInstanceAutomaton, alive, all_words, find_embedding, first_acceptance_time


def expand_breadth_first(auto, max_states: int) -> None:
    """Step every letter from each non-accepting state in number order (a
    breadth-first search), until the closure is done or holds max_states
    states."""
    state = 0
    while state < auto.state_count < max_states:
        if not auto.accepting[state]:
            for a in range(1, auto.d + 1):
                auto.step(state, a)
        state += 1


@pytest.mark.parametrize(
    "d,k,max_states",
    [
        (1, 1, None),
        (1, 2, None),
        (2, 1, None),
        (2, 2, None),
        (2, 3, None),
        (3, 1, None),
        (3, 2, None),
        (3, 3, None),
        (4, 2, None),
        (4, 3, None),
        (5, 2, None),
        (4, 4, 20_000),
        # A pattern's matcher field spans several bytes: 36 instances of 12
        # at (9,2), 20 of 123 at (6,3), 10 of 112 at (5,4), 780 of 12 at
        # (40,2); and all 40 letters of (40,1) share one mask.
        (9, 2, None),
        (6, 3, 5_000),
        (5, 4, 5_000),
        (40, 2, 2_000),
        (40, 1, None),
    ],
)
def test_component_states_match_the_per_instance_oracle(d, k, max_states):
    auto, oracle = ContainmentAutomaton(d, k), PerInstanceAutomaton(d, k)
    for a in (auto, oracle):
        expand_breadth_first(a, max_states or 10**9)
    assert auto.state_count == oracle.state_count
    assert auto.transitions == oracle.transitions
    assert auto.accepting == oracle.accepting


def test_component_overflow_is_a_budget_error(monkeypatch):
    monkeypatch.setattr(automaton, "_MAX_COMPONENTS", 4)
    with pytest.raises(BudgetExceededError, match="exceeded 4 progress vectors"):
        expand_breadth_first(ContainmentAutomaton(3, 3), 10**9)


@pytest.mark.parametrize("d,k", [(16, 2), (8, 4), (7, 5)])
def test_the_ones_component_past_the_cap_is_refused_before_any_fill(monkeypatch, d, k):
    # Pattern 1...1 has one id for each count 0..k-1 of each letter: k^d ids
    # beside the contained id 0, past the 65,535 that fit.
    fills = []
    fill = ContainmentAutomaton._fill

    def counted(auto, *args):
        fills.append(args)
        return fill(auto, *args)

    monkeypatch.setattr(ContainmentAutomaton, "_fill", counted)
    message = f"^the automaton for k={k}, d={d} exceeded 65536 progress vectors for pattern {'1' * k}$"
    with pytest.raises(BudgetExceededError, match=message):
        simulate_tau(d, k, 1, 0)
    assert fills == []


@pytest.mark.parametrize("d,k", [(10, 5), (17, 4), (300, 2)])
def test_too_many_instances_fail_before_enumeration(d, k):
    assert d**k > MAX_INSTANCES
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="d\\*\\*k pattern instances"):
        ContainmentAutomaton(d, k)
    with pytest.raises(BudgetExceededError, match="d\\*\\*k pattern instances"):
        simulate_tau(d, k, 5, 0)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["--d", "10", "--k", "5", "--trials", "1"],
        ["--d", "17", "--k", "4", "--trials", "1"],
        ["--d", "300", "--k", "2", "--trials", "5"],
    ],
)
def test_too_many_instances_exit_three(capsys, argv):
    start = time.process_time()
    assert main(["simulate", *argv]) == 3
    assert time.process_time() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pattern instances" in captured.err


@pytest.mark.parametrize(
    "route",
    [
        lambda: ContainmentAutomaton(6, 6),
        lambda: strict_counts_by_length(6, 6, 6),
        lambda: list(iter_superpatterns(6, 6, 6)),
        lambda: simulate_tau(6, 6, 1, 0),
        lambda: enumerate_preferential_arrangements(6),
        lambda: ContainmentAutomaton(9, 6),
        lambda: simulate_tau(9, 6, 1, 0),
        lambda: ContainmentAutomaton(7, 7),
        lambda: list(iter_superpatterns(7, 7, 13)),
    ],
    ids=["automaton", "count", "listing", "simulate", "arrangements", "9,6", "simulate-9,6", "7,7", "listing-7,7"],
)
def test_pattern_length_past_the_cap_fails_at_once(route):
    # Every automaton lists its patterns before it checks the cap on pattern
    # instances, so the cap on pattern length stops these before any pattern
    # is listed, under MAX_INSTANCES (6**6) or over it (9**6, 7**7).
    start = time.process_time()
    with pytest.raises(ValueError, match="k=[67] is over the cap of 5"):
        route()
    assert time.process_time() - start < 0.5


def test_agrees_with_backtracking_route_ternary():
    auto = ContainmentAutomaton(3, 3)
    for n in range(0, 7):
        for w in all_words(3, n):
            assert auto.accepting[auto.scan(w.letters)] == is_superpattern(w, 3)


def test_agrees_with_backtracking_route_binary():
    auto = ContainmentAutomaton(2, 2)
    for n in range(0, 9):
        for w in all_words(2, n):
            assert auto.accepting[auto.scan(w.letters)] == is_superpattern(w, 2)


def test_missing_patterns_agree():
    auto = get_automaton(3, 3)
    rng = random.Random(11)
    for _ in range(200):
        letters = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 10)))
        w = Word(letters, 3)
        assert auto.accepting[auto.scan(w.letters)] == (not missing_patterns(w, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4), max_size=12),
    st.integers(1, 4).flatmap(lambda k: st.sampled_from(enumerate_preferential_arrangements(k))),
)
def test_the_matcher_reports_each_prefix_letter_by_letter(letters, pattern):
    # Each state, carried on one letter at a time, tells whether the prefix
    # read so far holds the pattern, as the backtracking oracle does.
    word = Word(tuple(letters), 4)
    matcher = _matcher(4, len(pattern), pattern.letters)
    state = matcher.run(())
    for t, a in enumerate(letters, 1):
        state = matcher.run((a,), state)
        assert (not matcher.missing(state)) == (find_embedding(word.prefix(t), pattern) is not None)


def test_a_fresh_automaton_refuses_states_past_its_own_budget(monkeypatch):
    auto = ContainmentAutomaton(3, 3)
    # The budget is read when a state is interned, so a lower one set after
    # the automaton was made still binds it.
    monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 100)
    with pytest.raises(BudgetExceededError, match="the automaton for k=3, d=3 exceeded 100 states"):
        expand_breadth_first(auto, 10**9)
    assert auto.state_count == 100


@pytest.mark.parametrize(
    "call",
    [
        lambda: close_and_minimise(4, 3),
        lambda: strict_counts_by_length(9, 2, 6),
        lambda: list(iter_superpatterns(9, 2, 4)),
        None,
    ],
    ids=["dfa", "counts", "listing", "refused"],
)
def test_no_automaton_outlives_its_call(monkeypatch, automata, call):
    # Each call makes its own automaton and nothing keeps it: the DFA's
    # closure keeps only the DFA, and a word space holds its lazy automaton
    # only while it lives, whether or not the automaton was refused.
    monkeypatch.setattr(_dfa, "_built", {})
    if call is None:
        monkeypatch.setattr(automaton, "SEARCH_STATE_BUDGET", 600)
        with pytest.raises(BudgetExceededError, match="the automaton for k=3, d=6 exceeded 600 states"):
            count_strict_superpatterns(6, 3, 15)
    else:
        call()
    assert len(automata) == 1 and alive(automata) == []


def test_tables_hold_only_what_was_stepped(automata):
    # A lazy (9, 2) space, 2**9 = 512 past the bound: a strict count to n = 8 and a
    # strict listing at n = 4 intern states they never step.
    space = _WordSpace(9, 2, _ANY)
    assert [hit for _level, hit in space.levels(8, strict=True)][-1] == 1_359_468
    assert len(list(space.walk(4, True, None))) == 2_160
    (auto,) = alive(automata)
    # Every state not yet stepped shares one blank row; each stepped state
    # has a row of its own.
    stepped = [row for row in auto.transitions if max(row) >= 0]
    blank = {id(row) for row in auto.transitions if max(row) < 0}
    assert len(blank) == 1 and len(stepped) < auto.state_count
    assert len({id(row) for row in auto.transitions}) == len(stepped) + 1
    # A column holds a successor only for the ids of its pattern read on
    # its letter, and interning an id adds to no column.
    for pi, components in enumerate(auto._components):
        interned = set(range(len(components)))
        columns = [letter_columns[pi] for letter_columns in auto._columns[1:]]
        assert all(set(column) <= interned and set(column.values()) <= interned for column in columns)
        assert sum(map(len, columns)) < len(columns) * len(interned)


def test_first_superpattern_time():
    auto = get_automaton(3, 3)
    assert first_acceptance_time(auto, (1, 2, 1, 3, 1, 2, 1)) == 7
    assert first_acceptance_time(auto, (1, 2, 1, 3, 1, 2)) is None
    # acceptance is absorbing: extending a superpattern keeps the same time
    assert first_acceptance_time(auto, (1, 2, 1, 3, 1, 2, 1, 3, 3)) == 7


def test_states_are_shared_and_bounded():
    auto = get_automaton(3, 3)
    before = auto.state_count
    for w in all_words(3, 5):
        auto.scan(w.letters)
    # revisiting the same prefixes must not mint new states
    for w in all_words(3, 5):
        auto.scan(w.letters)
    assert auto.state_count >= before
    assert auto.state_count < 5000


def test_each_call_makes_a_new_automaton(automata):
    first, second = get_automaton(2, 2), get_automaton(2, 2)
    first.scan([1, 2, 2, 1])
    assert first is not second and second.state_count == 1
    assert len(automata) == 2
