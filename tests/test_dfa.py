from __future__ import annotations

import random
import time

import pytest

from superpatterns import BudgetExceededError, ContainmentAutomaton, simulate_tau, strict_counts_by_length
from superpatterns import _dfa, automaton, waiting
from superpatterns._dfa import _minimal, _minimise, _refine, close_and_minimise
from superpatterns.waiting import _byte_tables

from conftest import alive, all_words, byte_entry_by_letters, close_lazily, first_acceptance_time, letters_of_bytes


def dfa_acceptance_time(rows: list[tuple[int, ...]], accept: int, letters) -> int | None:
    state = 0
    for t, a in enumerate(letters, 1):
        state = rows[state][a - 1]
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
    assert all(len(row) == d for row in rows)
    assert rows[accept] == (accept,) * d


@pytest.mark.parametrize("d,k,n_max", [(2, 2, 12), (3, 3, 9), (4, 3, 7)])
def test_first_acceptance_matches_the_automaton(d, k, n_max):
    rows, accept = close_and_minimise(d, k)
    auto = ContainmentAutomaton(d, k)
    for n in range(n_max + 1):
        for w in all_words(d, n):
            assert dfa_acceptance_time(rows, accept, w.letters) == first_acceptance_time(auto, w.letters)


def lazy_columns(auto: ContainmentAutomaton) -> list[list[int]]:
    """The oracle closure's transitions by letter, its unexpanded accepting
    states looping to themselves, as the minimiser takes them."""
    return [
        [s if accepting else row[a] for s, (row, accepting) in enumerate(zip(auto.transitions, auto.accepting))]
        for a in range(1, auto.d + 1)
    ]


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_refinement_is_at_its_fixed_point(d, k):
    auto = close_lazily(d, k)
    columns = lazy_columns(auto)
    block, count = _minimise(columns, auto.accepting)
    assert block[0] == 0
    assert _refine(columns, block)[1] == count


def minimised_full_product(d: int, k: int) -> tuple[list[list[int]], int]:
    """The oracle closure Moore-minimised: (rows over letters 1..d, accept)."""
    auto = close_lazily(d, k)
    block, count = _minimise(lazy_columns(auto), auto.accepting)
    accept = block[auto.accepting.index(True)]
    rows: list = [None] * count
    for s, row in enumerate(auto.transitions):
        if rows[block[s]] is None:
            rows[block[s]] = [accept] * d if auto.accepting[s] else [block[t] for t in row[1:]]
    return rows, accept


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (6, 2), (3, 3), (4, 3)])
def test_joined_components_minimise_to_the_full_product(d, k):
    expected, expected_accept = minimised_full_product(d, k)
    rows, accept = close_and_minimise(d, k)
    assert len(rows) == len(expected)
    # A paired breadth-first search from both starts finds the renaming; it
    # must respect every transition and be one-to-one.
    image = {0: 0}
    queue = [0]
    for s in queue:
        for t, u in zip(expected[s], rows[image[s]]):
            if t not in image:
                image[t] = u
                queue.append(t)
            assert image[t] == u
    assert sorted(image.values()) == list(range(len(rows)))
    assert image[expected_accept] == accept


@pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 3)])
def test_no_two_minimised_states_are_equivalent(d, k):
    rows, accept = close_and_minimise(d, k)
    accepting = [s == accept for s in range(len(rows))]
    assert _minimise(list(zip(*rows)), accepting)[1] == len(rows)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (2, 1), (3, 1)])
def test_scans_on_another_automaton_leave_the_dfa_as_built_cold(monkeypatch, automata, d, k):
    # The DFA closes the components of an automaton of its own, so a warm
    # automaton for the same (d, k), whose ids the scans have numbered in
    # their own order, is neither read nor stepped, and the rows come out
    # the same.
    monkeypatch.setattr(_dfa, "_built", {})
    cold = close_and_minimise(d, k)
    monkeypatch.setattr(_dfa, "_built", {})
    rng = random.Random(d * 10 + k)
    warm = automaton.get_automaton(d, k)
    for _ in range(200):
        warm.scan([rng.randint(1, d) for _ in range(rng.randint(1, 3 * d * k))])
    states = warm.state_count
    assert close_and_minimise(d, k) == cold and warm.state_count == states
    assert len(automata) == 3 and alive(automata) == [warm]


def test_closure_visits_no_state_past_acceptance():
    auto = close_lazily(3, 3)
    assert auto.accepting.count(True) == 1
    assert auto.state_count == 646


def no_closure(d, k):
    raise AssertionError("closure started")


def test_k_above_d_is_refused_before_closure(monkeypatch):
    monkeypatch.setattr(_dfa, "get_automaton", no_closure)
    with pytest.raises(ValueError, match="d=3, k=4"):
        close_and_minimise(3, 4)


@pytest.mark.parametrize("d", [17, 200])
def test_wide_alphabets_are_refused_before_closure(monkeypatch, automata, d):
    # Pattern 11 alone needs 2^d states before acceptance, over the budget.
    # The refusal comes before any automaton is made (one of 40,000
    # instances at d = 200).
    monkeypatch.setattr(ContainmentAutomaton, "closed_component", no_closure)
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match=f"k=2, d={d} needs at least k\\^d = {2**d} states"):
        simulate_tau(d, 2, 5, 0)
    assert time.process_time() - start < 0.5
    assert automata == []


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (6, 2), (3, 3), (4, 3), (2, 1)])
def test_the_refusal_bound_is_below_the_closure(d, k):
    # So an input the closure would finish within budget is never refused:
    # the full product has k^d states before acceptance, and so has the
    # minimised component of 1...1, which every product that joins it maps
    # onto.
    auto = close_lazily(d, k)
    assert auto.accepting.count(False) >= k**d
    ones = ContainmentAutomaton(d, k)
    columns = ones.closed_component([p.letters for p in ones.patterns].index((1,) * k))
    assert len(_minimal(columns, [c == 0 for c in range(len(columns[0]))], 1)[0]) - 1 >= k**d


def test_small_budget_fails_fast(monkeypatch):
    monkeypatch.setattr(_dfa, "_built", {})
    monkeypatch.setattr(_dfa, "STATE_BUDGET", 2000)
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="exceeded 2000 states"):
        close_and_minimise(4, 4)
    assert time.process_time() - start < 0.5


def test_budget_overrun_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(_dfa, "_built", {})
    monkeypatch.setattr(_dfa, "STATE_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        simulate_tau(4, 4, 10, 0)
    assert (4, 4) not in _byte_tables
    assert (4, 4) not in _dfa._built


def test_table_is_built_once(monkeypatch):
    monkeypatch.setattr(waiting, "_byte_tables", {})
    simulate_tau(3, 3, 10, 0)
    table = waiting._byte_tables[(3, 3)]
    rows = list(table.rows)
    simulate_tau(3, 3, 10, 0)
    assert waiting._byte_tables[(3, 3)] is table
    # The second call reuses the table, rows and all.
    assert all(a is b for a, b in zip(table.rows, rows))


def test_the_word_space_and_the_simulator_share_one_dfa(monkeypatch):
    # The counting DP builds the (3, 3) DFA; the simulator's byte table then
    # reads the same one and closes no component again.
    monkeypatch.setattr(_dfa, "_built", {})
    monkeypatch.setattr(waiting, "_byte_tables", {})
    assert strict_counts_by_length(3, 3, 9)[9] == 1_608
    dfa = _dfa._built[(3, 3)]
    monkeypatch.setattr(ContainmentAutomaton, "closed_component", no_closure)
    simulate_tau(3, 3, 10, 0)
    assert close_and_minimise(3, 3) is dfa and list(_dfa._built) == [(3, 3)]
    assert waiting._byte_tables[(3, 3)].states == len(dfa[0])


def _decoded(table: waiting._ByteTable, owners: dict[int, int], entry: int) -> tuple[int, tuple[int, ...]]:
    """An entry as (end state, finish offsets): a variant's end is the state
    whose row object it shares (`owners` maps id(row) to the state)."""
    return owners[id(table.rows[entry])], table.offsets[entry]


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
    owners = {id(row): s for s, row in enumerate(table.rows[: table.states])}
    several_seen = False
    for state in range(len(rows)):
        if state == accept:
            continue
        for b in accepted:
            end, finishes = byte_entry_by_letters(rows, accept, letters, state, b)
            entry = table.rows[state][table.residues[b]]
            assert (entry < table.states) == (not finishes)
            assert _decoded(table, owners, entry) == (end, finishes)
            several_seen |= len(finishes) > 1
    assert several_seen == several


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (10, 2), (3, 3), (4, 3)])
def test_every_elapsed_code_matches_the_letter_by_letter_oracle(d, k):
    # steps[x][e] for each id x a byte reaches, read against the letters of
    # one byte that reaches it: the trial lengths it finishes and the next
    # code, which every byte after reads as its count of letters.
    table = waiting._ByteTable(d, k)
    rows, accept = close_and_minimise(d, k)
    letters = letters_of_bytes(d)
    j, cap, spill, steps = table.letters_per_byte, table.cap, table.spill, table.steps
    reached = {}
    for state in range(len(rows)):
        for b, unit in enumerate(letters):
            if state != accept and unit:
                reached.setdefault(table.rows[state][table.residues[b]], (state, b))
    for x, (state, b) in reached.items():
        _, finishes = byte_entry_by_letters(rows, accept, letters, state, b)
        for e in range(cap + 1):
            code = steps[x][e]
            if finishes:
                gaps = tuple(q - p for p, q in zip(finishes, finishes[1:]))
                assert table.finished[code] == (e + finishes[0], *gaps)
                assert table.elapsed[code] == j - finishes[-1]
                assert all(row[code] == row[j - finishes[-1]] for row in steps)
            else:
                assert (code, table.finished[code], table.elapsed[code]) == (e + j, (), e + j)
    # Past cap, every byte leads to the spill code, which `run` counts for.
    assert all(set(row[cap + 1 : spill + 1]) == {spill} for row in steps)
    assert all(len(row) == len(table.finished) == len(table.elapsed) for row in steps)
    # Ids with the same finish offsets share one row.
    assert len({id(row) for row in steps}) == len(set(table.offsets))


@pytest.mark.parametrize("d,k", [*((d, 2) for d in range(2, 10)), (3, 3), (4, 3)])
def test_variants_share_their_end_state_rows(d, k):
    # A variant's row is a state's row object, so variants add no table
    # memory; the entry test above checks that it is its end state's.
    table = waiting._ByteTable(d, k)
    state_rows = {id(row) for row in table.rows[: table.states]}
    assert len(state_rows) == table.states
    assert {id(row) for row in table.rows} == state_rows
    assert all(table.offsets[v] for v in range(table.states, len(table.rows)))
    # Fewer than 256 variants, so the ids fit the 16-bit rows.
    assert len(table.rows) - table.states < 256
    assert {row.typecode for row in table.rows} == {"H"}
    if (d, k) == (3, 3):
        # Every id is a cached small int.
        assert len(table.rows) <= 256
