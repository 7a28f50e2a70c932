from __future__ import annotations

import time

import pytest

from superpatterns import BudgetExceededError, ContainmentAutomaton, simulate_tau
from superpatterns import _dfa
from superpatterns._dfa import _close, _minimise, _refine, close_and_minimise, minimal_dfa
from superpatterns.waiting import _byte_tables

from conftest import all_words


def first_acceptance_time(dfa: _dfa.MinimalDfa, letters) -> int | None:
    state = 0
    for t, a in enumerate(letters, 1):
        state = dfa.rows[state][a]
        if state == dfa.accept:
            return t
    return None


@pytest.mark.parametrize(
    "d,k,states",
    [(1, 1, 2), (2, 2, 6), (3, 2, 17), (4, 2, 39), (5, 2, 84), (3, 3, 44), (4, 3, 1364)],
)
def test_minimised_state_counts(d, k, states):
    dfa = minimal_dfa(d, k)
    assert len(dfa.rows) == states
    assert all(len(row) == d + 1 for row in dfa.rows)
    assert dfa.rows[dfa.accept][1:] == (dfa.accept,) * d


@pytest.mark.parametrize("d,k,n_max", [(2, 2, 12), (3, 3, 9), (4, 3, 7)])
def test_first_acceptance_matches_the_automaton(d, k, n_max):
    dfa = minimal_dfa(d, k)
    auto = ContainmentAutomaton(d, k)
    for n in range(n_max + 1):
        for w in all_words(d, n):
            assert first_acceptance_time(dfa, w.letters) == auto.first_superpattern_time(w.letters)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_refinement_is_at_its_fixed_point(d, k):
    auto = _close(d, k, _dfa.STATE_BUDGET)
    block, count = _minimise(auto.transitions, auto.accepting)
    assert block[0] == 0
    assert _refine(auto.transitions, auto.accepting, block)[1] == count


@pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 3)])
def test_no_two_minimised_states_are_equivalent(d, k):
    dfa = minimal_dfa(d, k)
    accepting = [s == dfa.accept for s in range(len(dfa.rows))]
    assert _minimise([list(row) for row in dfa.rows], accepting)[1] == len(dfa.rows)


def test_closure_visits_no_state_past_acceptance():
    auto = _close(3, 3, _dfa.STATE_BUDGET)
    assert auto.accepting.count(True) == 1
    assert auto.state_count == 646


def test_small_budget_fails_fast():
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
        close_and_minimise(4, 4, state_budget=2000)
    assert time.process_time() - start < 0.5


def test_budget_overrun_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(_dfa, "STATE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        minimal_dfa(4, 4)
    with pytest.raises(BudgetExceededError):
        simulate_tau(4, 4, 10, 0)
    assert (4, 4) not in _dfa._cache
    assert (4, 4) not in _byte_tables


def test_table_is_built_once():
    assert minimal_dfa(3, 3) is minimal_dfa(3, 3)
