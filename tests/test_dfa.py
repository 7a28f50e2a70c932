from __future__ import annotations

import time

import pytest

from superpatterns import BudgetExceededError, ContainmentAutomaton, simulate_tau
from superpatterns import _dfa, waiting
from superpatterns._dfa import _close, _minimise, _refine, close_and_minimise
from superpatterns.waiting import _byte_tables

from conftest import all_words, byte_entry_by_letters, first_acceptance_time, letters_of_bytes


def dfa_acceptance_time(rows: tuple[tuple[int, ...], ...], accept: int, letters) -> int | None:
    state = 0
    for t, a in enumerate(letters, 1):
        state = rows[state][a]
        if state == accept:
            return t
    return None


@pytest.mark.parametrize(
    "d,k,states",
    [(1, 1, 2), (2, 2, 6), (3, 2, 17), (4, 2, 39), (5, 2, 84), (3, 3, 44), (4, 3, 1364)],
)
def test_minimised_state_counts(d, k, states):
    rows, accept = close_and_minimise(d, k)
    assert len(rows) == states
    assert all(len(row) == d + 1 for row in rows)
    assert rows[accept][1:] == (accept,) * d


@pytest.mark.parametrize("d,k,n_max", [(2, 2, 12), (3, 3, 9), (4, 3, 7)])
def test_first_acceptance_matches_the_automaton(d, k, n_max):
    rows, accept = close_and_minimise(d, k)
    auto = ContainmentAutomaton(d, k)
    for n in range(n_max + 1):
        for w in all_words(d, n):
            assert dfa_acceptance_time(rows, accept, w.letters) == first_acceptance_time(auto, w.letters)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_refinement_is_at_its_fixed_point(d, k):
    auto = _close(d, k)
    block, count = _minimise(auto.transitions, auto.accepting)
    assert block[0] == 0
    assert _refine(auto.transitions, auto.accepting, block)[1] == count


@pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 3)])
def test_no_two_minimised_states_are_equivalent(d, k):
    rows, accept = close_and_minimise(d, k)
    accepting = [s == accept for s in range(len(rows))]
    assert _minimise([list(row) for row in rows], accepting)[1] == len(rows)


def test_closure_visits_no_state_past_acceptance():
    auto = _close(3, 3)
    assert auto.accepting.count(True) == 1
    assert auto.state_count == 646


def test_k_above_d_is_refused_before_closure(monkeypatch):
    def no_closure(d, k):
        raise AssertionError("closure started")

    monkeypatch.setattr(_dfa, "_close", no_closure)
    with pytest.raises(ValueError, match="d=3, k=4"):
        close_and_minimise(3, 4)


@pytest.mark.parametrize("d", [17, 200])
def test_wide_alphabets_are_refused_before_closure(monkeypatch, d):
    # Pattern 11 alone needs 2^d states before acceptance, over the budget.
    def no_closure(d, k):
        raise AssertionError("closure started")

    monkeypatch.setattr(_dfa, "_close", no_closure)
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match=f"k=2, d={d} needs at least k\\^d = {2**d} states"):
        simulate_tau(d, 2, 5, 0)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (6, 2), (3, 3), (4, 3), (2, 1)])
def test_the_refusal_bound_is_below_the_closure(d, k):
    # So an input the closure would finish within budget is never refused.
    auto = _close(d, k)
    assert auto.accepting.count(False) >= k**d


def test_small_budget_fails_fast(monkeypatch):
    monkeypatch.setattr(_dfa, "STATE_BUDGET", 2000)
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
        close_and_minimise(4, 4)
    assert time.process_time() - start < 0.5


def test_budget_overrun_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(_dfa, "STATE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        simulate_tau(4, 4, 10, 0)
    assert (4, 4) not in _byte_tables


def test_table_is_built_once(monkeypatch):
    monkeypatch.setattr(waiting, "_byte_tables", {})
    simulate_tau(3, 3, 10, 0)
    table = waiting._byte_tables[(3, 3)]
    rows = list(table.rows)
    simulate_tau(3, 3, 10, 0)
    assert waiting._byte_tables[(3, 3)] is table
    # The second call reuses the table, rows and all.
    assert all(a is b for a, b in zip(table.rows, rows))


def _decoded(table: waiting._ByteTable, entry: int) -> tuple[int, tuple[int, ...]]:
    if entry >= 0:
        return entry, ()
    code = ~entry & 255
    return ~entry >> 8, (code,) if code < 128 else table.finishes[code]


# several: whether a byte holds more letters than the least waiting time, so
# that two trials can finish in one byte.
@pytest.mark.parametrize(
    "d,k,several",
    [
        (2, 2, True),
        (3, 2, True),
        (4, 2, True),
        (5, 2, False),
        (6, 2, False),  # 216 entries per row, and a rejected tail
        (7, 2, False),
        (10, 2, False),  # 100 entries per row, 200 accepted bytes
        (3, 3, False),
        (4, 3, False),
    ],
)
def test_every_row_entry_matches_the_letter_by_letter_oracle(d, k, several):
    table = waiting._ByteTable(d, k)
    rows, accept = close_and_minimise(d, k)
    letters = letters_of_bytes(d)
    width = d ** len(letters[0])
    assert list(table.residues) == [b % width for b in range(256)]
    assert all(len(row) == width for row in table.rows)
    accepted = [b for b, unit in enumerate(letters) if unit]
    several_seen = False
    for state in range(len(rows)):
        if state == accept:
            continue
        for b in accepted:
            end, finishes = byte_entry_by_letters(rows, accept, letters, state, b)
            assert _decoded(table, table.rows[state][table.residues[b]]) == (end, finishes)
            several_seen |= len(finishes) > 1
    assert several_seen == several


@pytest.mark.parametrize("d,k", [*((d, 2) for d in range(2, 10)), (3, 3), (4, 3)])
def test_finish_codes_stay_below_the_unbuilt_code(d, k):
    # An entry keeps its finish code in its low byte.
    assert len(waiting._ByteTable(d, k).finishes) <= 256
