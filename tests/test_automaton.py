from __future__ import annotations

import random
import time

import pytest

from superpatterns import (
    BudgetExceededError,
    ContainmentAutomaton,
    Word,
    get_automaton,
    is_superpattern,
    missing_patterns,
    simulate_tau,
)
from superpatterns import automaton
from superpatterns.cli import main

from conftest import PerInstanceAutomaton, all_words


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
    ],
)
def test_component_states_match_the_per_instance_oracle(d, k, max_states):
    auto, oracle = ContainmentAutomaton(d, k), PerInstanceAutomaton(d, k)
    for a in (auto, oracle):
        expand_breadth_first(a, max_states or 10**9)
    assert auto.state_count == oracle.state_count
    assert auto.transitions == oracle.transitions
    assert auto.accepting == oracle.accepting
    assert all(
        auto.missing_pattern_indices(s) == oracle.missing_pattern_indices(s) for s in range(auto.state_count)
    )


def test_component_overflow_is_a_budget_error(monkeypatch):
    monkeypatch.setattr(automaton, "_MAX_COMPONENTS", 4)
    with pytest.raises(BudgetExceededError, match="exceeded 4 progress vectors"):
        expand_breadth_first(ContainmentAutomaton(3, 3), 10**9)


@pytest.mark.parametrize("d,k", [(9, 6), (300, 2)])
def test_too_many_instances_fail_before_enumeration(d, k):
    assert d**k > automaton.MAX_INSTANCES
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="d\\*\\*k pattern instances"):
        ContainmentAutomaton(d, k)
    with pytest.raises(BudgetExceededError, match="d\\*\\*k pattern instances"):
        simulate_tau(d, k, 5, 0)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("argv", [["--d", "9", "--k", "6", "--trials", "1"], ["--d", "300", "--k", "2", "--trials", "5"]])
def test_too_many_instances_exit_three(capsys, argv):
    start = time.process_time()
    assert main(["simulate", *argv]) == 3
    assert time.process_time() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pattern instances" in captured.err


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
        w = Word.from_letters(letters, 3)
        state = auto.scan(letters)
        from_auto = {str(auto.patterns[i]) for i in auto.missing_pattern_indices(state)}
        assert from_auto == {str(p) for p in missing_patterns(w, 3)}


def test_first_superpattern_time():
    auto = get_automaton(3, 3)
    assert auto.first_superpattern_time((1, 2, 1, 3, 1, 2, 1)) == 7
    assert auto.first_superpattern_time((1, 2, 1, 3, 1, 2)) is None
    # acceptance is absorbing: extending a superpattern keeps the same time
    assert auto.first_superpattern_time((1, 2, 1, 3, 1, 2, 1, 3, 3)) == 7


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


def test_shared_instance_reuse():
    assert get_automaton(2, 2) is get_automaton(2, 2)
