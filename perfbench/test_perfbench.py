"""Self-tests of the benchmark's helpers: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([1, 2, 3, 4], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_samples_beyond_p99():
    assert stats.samples_beyond(1800, 99) == 18
    assert stats.samples_beyond(100, 99) == 1
    assert stats.samples_beyond(1, 99) == 0


@pytest.mark.parametrize("name", ["pass_s", "automaton.build_s.d4k3", "9lives", "a-b_c.d", "x" * 64])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "a b", "a/b", "x" * 65, "naïve"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
        assert stats.valid_name(name), name
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS == tuple(run.PASS_WALL_S)


class FakeClock:
    def __init__(self, *times: float):
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    monkeypatch.setattr(tracing, "perf_counter", FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer = tracing.Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.self_times() == [4, 2, 3, 1]
    agg = tracer.aggregate()
    assert agg["outer"] == {"calls": 1, "total_s": 10, "self_s": 4}
    assert agg["b"]["self_s"] == 3
    assert tracer.children_total("outer") == 6
    assert tracer.children_total("missing") == 0


def test_wrap_drains_generators_and_counts_true_results():
    tracer = tracing.Tracer()
    produced = []

    def gen(n):
        for i in range(n):
            produced.append(i)
            yield i

    traced_gen = tracer.wrap("gen", gen, generator=True)
    traced_even = tracer.wrap("even", lambda x: x % 2 == 0, count_true=True)
    assert list(traced_gen(3)) == [0, 1, 2] and tracer.span_count == 0  # disabled: no spans
    tracer.enabled = True
    it = traced_gen(3)
    assert produced == [0, 1, 2, 0, 1, 2]  # drained inside the span, before the caller iterates
    assert list(it) == [0, 1, 2]
    assert [traced_even(x) for x in range(5)] == [True, False, True, False, True]
    agg = tracer.aggregate()
    assert agg["gen"]["calls"] == 1
    assert agg["even"]["calls"] == 5 and agg["even"]["true"] == 3


def test_tally_counts_each_failed_operation_once():
    tally = workloads.Tally()
    op, result = tally.run("boom", lambda: 1 / 0)
    assert result is None and tally.failed == 1
    op2, result2 = tally.run("fine", lambda: 2)
    tally.expect(op2, False, "first")
    tally.expect(op2, False, "second")
    with tally.checking(op2):
        raise KeyError("x")
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.failures[op2].endswith("first")


def test_tally_scales_each_operation_by_the_laps_around_it(monkeypatch):
    laps = iter([0.03, 0.015, 0.015])  # before the first operation, between, after the last
    monkeypatch.setattr(workloads.reference, "lap", lambda: next(laps))
    monkeypatch.setattr(workloads, "process_time", FakeClock(0, 0.3, 1, 1.1))
    tally = workloads.Tally()
    tally.run("slow-host", lambda: None)  # 0.3 s: a lap is due before the next operation
    tally.run("quiet-host", lambda: None)  # 0.1 s
    tally.close()
    reference_s = workloads.reference.REFERENCE_S
    assert tally.seconds == pytest.approx([0.3 * 2 * reference_s / 0.045, 0.1 * 2 * reference_s / 0.03])
    assert tally.reference_laps == [0.03, 0.015, 0.015]


def test_wrong_expected_value_is_counted_as_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "SIM_CASES", ((3, 3, 3_000),))
    simulate = workloads.Simulate()
    tally = workloads.Tally()
    simulate.verify(11, simulate.run(11, tally), tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    monkeypatch.setitem(workloads.EXACT_MOMENTS, (3, 3), (Fraction(217, 16) + 1, Fraction(4623, 256)))
    tally = workloads.Tally()
    simulate.verify(11, simulate.run(11, tally), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "sample mean" in tally.failures[0]


def _dfs_children(d: int, k: int, n: int) -> int:
    auto = workloads.sp.get_automaton(d, k)
    examined = 0
    stack = [(0, 0)]
    while stack:
        state, t = stack.pop()
        for a in range(1, d + 1):
            examined += 1
            nxt = auto.step(state, a)
            if not auto.accepting[nxt] and t + 1 < n:
                stack.append((nxt, t + 1))
    return examined


@pytest.mark.parametrize("d, n", [(2, 1), (2, 9), (3, 1), (3, 8)])
def test_scan_nodes_derivation_matches_a_counted_scan(d, n):
    strict = workloads.sp.strict_counts_by_length(d, d, n)
    assert workloads.scan_nodes(d, [strict[m] for m in range(1, n)]) == _dfs_children(d, d, n)
