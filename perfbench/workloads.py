"""The four workloads: inputs from a seed, the timed pass, counts, and checks.

Each workload leans on a different module (see README.md).  ``run`` is the
timed region; ``counts`` and ``verify`` run after it, and ``verify`` checks
every output by a second route.  Library functions are always looked up on
the ``superpatterns`` modules at call time, so the tracing wrappers see them.

Operations are timed in CPU seconds of the process (``time.process_time``),
scaled to the reference speed (reference.py).  The library is single-threaded
and CPU-bound, so on an idle machine CPU time is its wall time; on a shared
one it leaves out the time the process waits for a core.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Iterator, Optional

import superpatterns as sp
import superpatterns.cli
import superpatterns.oeis

import reference

OUT_DIR = Path(__file__).resolve().parent / "out"
# CPU seconds of operations between two laps of the reference loop.
REFERENCE_EVERY_S = 0.25


class Tally:
    """Operations attempted and failed in one pass, and their times.

    An operation fails when it raises or when any check on its output fails;
    it counts once however many of its checks fail.  A lap of the reference
    loop runs before the first operation, after the last (``close``), and
    between operations every REFERENCE_EVERY_S; ``close`` scales each
    operation's time by the laps on either side of it.
    """

    def __init__(self, span: Optional[Callable[[str], Any]] = None) -> None:
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.failures: dict[int, str] = {}
        self._span = span
        self.reference_laps = [reference.lap()]
        self._lap_before: list[int] = []
        self._since_lap = 0.0

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, kind: str, fn: Callable, *args: Any) -> tuple[int, Any]:
        """Time one operation in CPU seconds; returns (operation index, result
        or None)."""
        if self._since_lap >= REFERENCE_EVERY_S:
            self.reference_laps.append(reference.lap())
            self._since_lap = 0.0
        op = len(self.kinds)
        self.kinds.append(kind)
        span = self._span(f"op.{kind}") if self._span else nullcontext()
        result = None
        start = process_time()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # an operation that raises is a counted failure
            self.fail(op, f"raised {exc!r}")
        self.seconds.append(process_time() - start)
        self._lap_before.append(len(self.reference_laps) - 1)
        self._since_lap += self.seconds[-1]
        return op, result

    def close(self) -> None:
        """Take the last lap, and put every operation's time at the reference
        speed."""
        laps = self.reference_laps
        laps.append(reference.lap())
        self.seconds = [reference.scale(s, laps[i], laps[i + 1]) for s, i in zip(self.seconds, self._lap_before)]

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, f"{self.kinds[op]}#{op}: {reason}")

    def expect(self, op: int, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    @contextmanager
    def checking(self, op: int) -> Iterator[None]:
        """Count a check that raises as a failure of the operation it checks."""
        try:
            yield
        except Exception as exc:
            self.fail(op, f"check raised {exc!r}")


def _total(agg: dict, name: str) -> float:
    return agg[name]["total_s"] if name in agg else 0.0


def _per_call_us(agg: dict, name: str) -> float:
    row = agg[name]
    return row["total_s"] / row["calls"] * 1e6


# --- simulate -----------------------------------------------------------------

SIM_CASES = ((2, 2, 500_000), (3, 3, 1_000_000), (4, 3, 200_000))
# Each case's trials are split into calls of at most this many, each seeded
# from (seed, call index).  Short operations keep the reference laps around
# each one close to it in time (see Tally).
TRIALS_PER_CALL = 50_000
RERUN_TRIALS = 2_000
# Exact (mean, variance) of the waiting time, from the paper's generating functions.
EXACT_MOMENTS = {
    (2, 2): (Fraction(5), Fraction(4)),
    (3, 3): (Fraction(217, 16), Fraction(4623, 256)),
}
LEAST_LENGTH = {(2, 2): 3, (3, 3): 7, (4, 3): 7}
MAX_STANDARD_ERRORS = 6


def _dk(d: int, k: int) -> str:
    return f"d{d}k{k}"


def _calls(trials: int) -> list[int]:
    full, rest = divmod(trials, TRIALS_PER_CALL)
    return [TRIALS_PER_CALL] * full + ([rest] if rest else [])


def _merged_histogram(calls: list[tuple[int, Any]]) -> Counter:
    merged: Counter = Counter()
    for _, summary in calls:
        merged.update(summary.histogram)
    return merged


class Simulate:
    name = "simulate"

    def prepare(self, seed: int) -> int:
        return seed

    def run(self, seed: int, tally: Tally) -> dict:
        return {
            (d, k): [
                tally.run(f"simulate.{_dk(d, k)}", sp.simulate_tau, d, k, n, seed * 100 + i)
                for i, n in enumerate(_calls(trials))
            ]
            for d, k, trials in SIM_CASES
        }

    def counts(self, seed: int, out: dict, agg: Optional[dict]) -> dict[str, int]:
        counts = {}
        for (d, k), calls in out.items():
            if any(summary is None for _, summary in calls):
                continue
            letters = sum(n * c for n, c in _merged_histogram(calls).items())
            counts[f"waiting.letters.{_dk(d, k)}"] = letters
            rows = sp.get_automaton(d, k).transitions
            built = sum(1 for row in rows for nxt in row[1:] if nxt >= 0)
            counts[f"automaton.transitions_built.{_dk(d, k)}"] = built
        return counts

    def verify(self, seed: int, out: dict, tally: Tally) -> None:
        for d, k, trials in SIM_CASES:
            calls = out[(d, k)]
            if any(summary is None for _, summary in calls):
                continue
            op = calls[0][0]  # a failed check of the whole case counts against its first call
            with tally.checking(op):
                histogram = _merged_histogram(calls)
                tally.expect(op, sum(histogram.values()) == trials, "histograms miss trials")
                least = LEAST_LENGTH[(d, k)]
                tally.expect(op, min(histogram) >= least, f"waiting time below {least}")
                if (d, k) in EXACT_MOMENTS:
                    mean, variance = EXACT_MOMENTS[(d, k)]
                    sample_mean = Fraction(sum(n * c for n, c in histogram.items()), trials)
                    error = MAX_STANDARD_ERRORS * math.sqrt(variance / trials)
                    tally.expect(
                        op,
                        abs(sample_mean - mean) <= error,
                        f"sample mean {float(sample_mean)} not within {error:.4g} of {mean}",
                    )
                again = [sp.simulate_tau(d, k, RERUN_TRIALS, seed) for _ in range(2)]
                tally.expect(op, again[0] == again[1], "same-seed reruns differ")

    def summary(self, out: dict, tally: Tally) -> dict:
        letters = sum(
            n * c for calls in out.values() for _, s in calls if s is not None for n, c in s.histogram.items()
        )
        seconds = sum(tally.seconds[op] for calls in out.values() for op, _ in calls)
        d3k3 = sum(tally.seconds[op] for op, _ in out[(3, 3)])
        return {
            "sim_letters_per_s": letters / seconds,
            "sim_trials_per_s.d3k3": SIM_CASES[1][2] / d3k3,
        }

    def layers(self, agg: dict, tracer: Any, counts: dict) -> dict[str, float]:
        metrics = {}
        for d, k, _ in SIM_CASES:
            dk = _dk(d, k)
            seconds = _total(agg, f"waiting.simulate_tau.{dk}")
            metrics[f"waiting.simulate_s.{dk}"] = seconds
            metrics[f"waiting.ns_per_letter.{dk}"] = seconds / counts[f"waiting.letters.{dk}"] * 1e9
        return metrics


# --- scan -----------------------------------------------------------------------

TERNARY_N = range(1, 15)
BINARY_N = range(1, 25)
ITER_STRICT_N = range(7, 13)
TERMINAL_N = range(8, 15)
ALTERNATING_N = range(7, 27)


def scan_nodes(d: int, strict: list[int]) -> int:
    """Children examined by the strict scan to length len(strict) + 1, derived
    from its counts: strict[m - 1] strict superpatterns of each shorter length m.

    The scan expands the empty prefix and every non-accepting prefix shorter
    than the target length, d children each.  Superpattern words of length t
    number d * (those of length t - 1) + strict[t - 1].
    """
    nodes = d
    accepted = 0
    for t, count in enumerate(strict, 1):
        accepted = d * accepted + count
        nodes += d * (d**t - accepted)
    return nodes


def _flanking(n: int) -> tuple[int, int]:
    words = list(sp.iter_strict_superpatterns(3, 3, n))
    return len(words), sum(1 for w in words if sp.has_flanking_pairs(w))


def _terminal(n: int) -> tuple[int, int]:
    words = list(sp.iter_strict_minimal_upto_iso(n))
    return len(words), sum(1 for w in words if sp.ends_with_minimum_superpattern(w))


def _alternating(n: int) -> tuple[int, int, tuple[int, int]]:
    return (
        sp.count_minimal_upto_iso(n),
        sp.count_strict_minimal_upto_iso(n),
        sp.count_beta_bruteforce(n),
    )


class Scan:
    name = "scan"

    def prepare(self, seed: int) -> None:
        return None  # deterministic: the seed does not enter

    def run(self, _: None, tally: Tally) -> dict:
        return {
            "ternary": [tally.run("brute_force_pmf.d3", sp.brute_force_pmf, 3, 3, n) for n in TERNARY_N],
            "binary": [tally.run("brute_force_pmf.d2", sp.brute_force_pmf, 2, 2, n) for n in BINARY_N],
            "flanking": [tally.run("iter_strict", _flanking, n) for n in ITER_STRICT_N],
            "terminal": [tally.run("terminal_min", _terminal, n) for n in TERMINAL_N],
            "alternating": [tally.run("alternating", _alternating, n) for n in ALTERNATING_N],
        }

    def counts(self, _: None, out: dict, agg: Optional[dict]) -> dict[str, int]:
        nodes = 0
        for d, key in ((3, "ternary"), (2, "binary")):
            strict: list[int] = []  # counts by length, from the PMFs of the scans so far
            for _, p in out[key]:  # lengths 1, 2, ... in order; each call rescans
                if p is None:
                    break
                nodes += scan_nodes(d, strict)
                strict.append(int(p * d ** (len(strict) + 1)))
        words = sum(r[0] for _, r in out["flanking"] if r is not None)
        return {"classify.strict_scan_nodes": nodes, "classify.iter_strict_words": words}

    def verify(self, _: None, out: dict, tally: Tally) -> None:
        for key, closed_form in (("ternary", sp.ternary_pmf), ("binary", sp.binary_pmf)):
            for n, (op, p) in enumerate(out[key], 1):
                if p is not None:
                    tally.expect(op, p == closed_form(n), f"P(tau={n}) = {p} != {closed_form(n)}")
        for n, (op, r) in zip(ITER_STRICT_N, out["flanking"]):
            if r is not None:
                expected = sp.count_formulas(n).s_total
                tally.expect(op, r[0] == expected, f"{r[0]} strict words at n={n}, want {expected}")
                tally.expect(op, r[1] == r[0], f"{r[0] - r[1]} words at n={n} lack flanking pairs")
        for n, (op, r) in zip(TERMINAL_N, out["terminal"]):
            if r is not None:
                expected = sp.count_formulas(n).s_mu
                tally.expect(op, r[0] == expected, f"{r[0]} strict minimal words at n={n}, want {expected}")
                tally.expect(op, r[1] == r[0], f"{r[0] - r[1]} words at n={n} end without a minimum")
        for n, (op, r) in zip(ALTERNATING_N, out["alternating"]):
            if r is not None:
                f = sp.count_formulas(n)
                expected = (f.gamma_total, f.s_mu, (f.beta_a, f.beta_b))
                tally.expect(op, r == expected, f"alternating counts {r} at n={n}, want {expected}")

    def summary(self, out: dict, tally: Tally) -> dict:
        return {}

    def layers(self, agg: dict, tracer: Any, counts: dict) -> dict[str, float]:
        return {
            "waiting.brute_force_pmf_s": _total(agg, "waiting.brute_force_pmf"),
            "classify.strict_scan_s": _total(agg, "classify.strict_counts_by_length"),
            "classify.iter_strict_s": _total(agg, "classify.iter_strict_superpatterns"),
            "classify.flanking_us": _per_call_us(agg, "classify.has_flanking_pairs"),
            "classify.terminal_min_s": _total(agg, "classify.ends_with_minimum_superpattern"),
            "classify.alt_count_s": sum(
                _total(agg, f"classify.{name}")
                for name in ("count_minimal_upto_iso", "count_strict_minimal_upto_iso", "count_beta_bruteforce")
            ),
        }


# --- check ----------------------------------------------------------------------

# (queries, alphabet size = pattern length, shortest word, longest word)
QUERY_MIX = ((1_500, 3, 7, 20), (300, 4, 12, 24))
# The seven minimum 3-superpatterns up to letter isomorphism, as the paper lists them.
MINIMUM_SUPERPATTERNS = ("1213121", "1213212", "1231213", "1231231", "1231321", "1232123", "1232132")


def _query(word: Any, k: int) -> tuple[Any, list]:
    return sp.classify(word, k), sp.missing_patterns(word, k)


class Check:
    name = "check"

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        queries = []
        for count, d, shortest, longest in QUERY_MIX:
            alphabet = range(1, d + 1)
            for _ in range(count):
                n = rng.randint(shortest, longest)
                queries.append((sp.Word(tuple(rng.choices(alphabet, k=n)), d), d))
        rng.shuffle(queries)
        minimum = [sp.Word.parse(w, alphabet_size=3) for w in MINIMUM_SUPERPATTERNS]
        return {"queries": queries, "minimum": minimum}

    def run(self, inputs: dict, tally: Tally) -> dict:
        minimum = inputs["minimum"]
        return {
            "queries": [tally.run("query", _query, w, k) for w, k in inputs["queries"]],
            "minimum": tally.run("minimum7", lambda: [sp.classify(w, 3) for w in minimum]),
            "quaternary": tally.run("quaternary", sp.verify_quaternary_counterexample),
        }

    def counts(self, inputs: dict, out: dict, agg: Optional[dict]) -> dict[str, int]:
        return {} if agg is None else {"patterns.contains_calls": agg["patterns.contains_pattern"]["calls"]}

    def verify(self, inputs: dict, out: dict, tally: Tally) -> None:
        auto = sp.get_automaton(3, 3)
        for (word, k), (op, result) in zip(inputs["queries"], out["queries"]):
            if result is None:
                continue
            flags, missing = result
            with tally.checking(op):
                tally.expect(op, (not missing) == flags.is_superpattern, "missing patterns disagree with verdict")
                if k == 3:
                    accepted = auto.accepting[auto.scan(word.letters)]
                    tally.expect(op, accepted == flags.is_superpattern, f"{word}: automaton says {accepted}")
        op, flags = out["minimum"]
        if flags is not None:
            tally.expect(op, all(f.is_minimum for f in flags), "a minimum superpattern is not classified minimum")
        op, ok = out["quaternary"]
        tally.expect(op, ok is True, "quaternary counterexample not verified")

    def summary(self, out: dict, tally: Tally) -> dict:
        latencies = [tally.seconds[op] for op, _ in out["queries"]]
        return {
            "check_queries_per_s": len(latencies) / sum(latencies),
            "query_ms": [s * 1e3 for s in latencies],
        }

    def layers(self, agg: dict, tracer: Any, counts: dict) -> dict[str, float]:
        contains = agg["patterns.contains_pattern"]
        return {
            "classify.classify_us": _per_call_us(agg, "classify.classify"),
            "classify.missing_us": _per_call_us(agg, "classify.missing_patterns"),
            "classify.min_length_s": _total(agg, "classify.min_superpattern_length"),
            "classify.quaternary_s": _total(agg, "classify.verify_quaternary_counterexample"),
            "patterns.contains_us": contains["self_s"] / contains["calls"] * 1e6,
            "patterns.hit_ratio": contains.get("true", 0) / contains["calls"],
        }


# --- exact ----------------------------------------------------------------------

# (subcommand, case, arguments) for superpatterns.cli.main, each writing to --out.
CLI_SET = (
    ("pmf", "d3", ["pmf", "--d", "3", "--n", "600"]),
    ("gf", "d3", ["gf", "--d", "3", "--n", "3000"]),
    ("pmf", "d2", ["pmf", "--d", "2", "--n", "3000"]),
    ("moments", "d2", ["moments", "--d", "2"]),
    ("moments", "d3", ["moments", "--d", "3"]),
    ("counts", "", ["counts", "--n-from", "7", "--n-to", "200"]),
    ("verify", "oeis", ["verify", "--suite", "oeis"]),
)
OEIS_ROWS = range(7, 16)


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def binary_closed_form(n: int) -> Fraction:
    return Fraction(n - 2, 2 ** (n - 1)) if n >= 3 else Fraction(0)


class Exact:
    name = "exact"

    def prepare(self, seed: int) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="exact-", dir=OUT_DIR))

    def run(self, directory: Path, tally: Tally) -> dict:
        out = {}
        for command, case, argv in CLI_SET:
            path = directory / f"{command}{case}.csv"
            out[(command, case)] = (*tally.run(f"cli.{command}", superpatterns.cli.main, [*argv, "--out", str(path)]), path)
        return out

    def counts(self, directory: Path, out: dict, agg: Optional[dict]) -> dict[str, int]:
        return {}

    def verify(self, directory: Path, out: dict, tally: Tally) -> None:
        try:
            for op, rc, _ in out.values():
                tally.expect(op, rc == 0, f"exit code {rc}")
            if all(rc == 0 for _, rc, _ in out.values()):
                self._verify_files(out, tally)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _verify_files(self, out: dict, tally: Tally) -> None:
        op, _, path = out[("gf", "d3")]
        gf: dict[int, Fraction] = {}
        with tally.checking(op):
            gf = {int(n): Fraction(c) for n, c in _csv_rows(path)[1:]}
            tally.expect(op, sorted(gf) == list(range(3001)), "gf rows are not 0..3000")
        for case, expected in (("d3", gf.__getitem__), ("d2", binary_closed_form)):
            op, _, path = out[("pmf", case)]
            with tally.checking(op):
                rows = _csv_rows(path)
                running = Fraction(0)
                for n, (label, p, _, cumulative) in enumerate(rows[1:-1], 1):
                    p = Fraction(p)
                    running += p
                    tally.expect(op, int(label) == n and p == expected(n), f"pmf {case} row {n} != gf")
                    tally.expect(op, Fraction(cumulative) == running, f"pmf {case} cumulative at {n}")
                tail = Fraction(rows[-1][1])
                tally.expect(op, rows[-1][0] == "tail" and running + tail == 1, f"pmf {case} mass != 1")
        for case, (mean, variance) in (("d2", EXACT_MOMENTS[(2, 2)]), ("d3", EXACT_MOMENTS[(3, 3)])):
            op, _, path = out[("moments", case)]
            with tally.checking(op):
                got = {row[0]: Fraction(row[1]) for row in _csv_rows(path)[1:]}
                tally.expect(op, got == {"mean": mean, "variance": variance}, f"moments {case}: {got}")
        op, _, path = out[("counts", "")]
        with tally.checking(op):
            rows = {int(row[0]): row for row in _csv_rows(path)[1:]}
            tally.expect(op, sorted(rows) == list(range(7, 201)), "counts rows are not 7..200")
            for n in OEIS_ROWS:
                gamma, s_mu = int(rows[n][1]), int(rows[n][2])
                tally.expect(op, gamma == superpatterns.oeis.minimal_count_reference(n), f"counts n={n} vs A024012")
                tally.expect(op, s_mu == superpatterns.oeis.strict_minimal_count_reference(n), f"counts n={n} vs A008865")
        op, _, path = out[("verify", "oeis")]
        with tally.checking(op):
            rows = _csv_rows(path)[1:]
            tally.expect(op, len(rows) == 2 * len(OEIS_ROWS) and all(r[-1] == "True" for r in rows), "oeis suite")

    def summary(self, out: dict, tally: Tally) -> dict:
        return {}

    def layers(self, agg: dict, tracer: Any, counts: dict) -> dict[str, float]:
        cli = {command: _total(agg, f"op.cli.{command}") for command in ("pmf", "gf", "moments", "counts")}
        library = tracer.children_total("op.cli.pmf") + tracer.children_total("op.cli.gf")
        return {
            "waiting.pmf_table_s.d3": _total(agg, "waiting.pmf_table.d3"),
            "series.expand_s.d3": _total(agg, "series.RationalFunction.series_coefficients"),
            "series.moments_s": _total(agg, "series.moments_from_gf"),
            **{f"cli.{command}_s": seconds for command, seconds in cli.items()},
            "cli.format_share": 1 - library / (cli["pmf"] + cli["gf"]),
            "oeis.check_s": _total(agg, "oeis.check_reference_sequences"),
        }


# The benchmark's workloads, one per part of the library each leans on.
WORKLOADS = {w.name: w for w in (Simulate(), Scan(), Check(), Exact())}


# --- probes of single layers, outside any workload --------------------------------

PROBE_LETTERS = 1_000_000
PROBE_REPEATS = 3
BUILD_CASES = ((3, 3), (4, 3))


def closed_automaton(d: int, k: int) -> Any:
    """A fresh automaton with every reachable state built, by depth-first
    search through step()."""
    auto = sp.ContainmentAutomaton(d, k)
    seen = {0}
    stack = [0]
    while stack:
        state = stack.pop()
        for a in range(1, auto.d + 1):
            nxt = auto.step(state, a)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return auto


def probe(seed: int, tally: Tally) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer microbenchmarks: transition lookups on a warm table, closing
    fresh automata, and RNG draws.  Returns (timings, counts)."""
    timings: dict[str, float] = {}
    counts: dict[str, int] = {}
    letters = random.Random(seed).choices((1, 2, 3), k=PROBE_LETTERS)
    auto = sp.ContainmentAutomaton(3, 3)
    auto.scan(letters)  # warm the table: every lookup below hits
    laps = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        auto.scan(letters)
        laps.append(perf_counter() - start)
    timings["automaton.step_ns"] = sorted(laps)[PROBE_REPEATS // 2] / PROBE_LETTERS * 1e9

    for d, k in BUILD_CASES:
        laps, states = [], set()
        for _ in range(PROBE_REPEATS):
            op, built = tally.run(f"build.{_dk(d, k)}", closed_automaton, d, k)
            laps.append(tally.seconds[op])
            if built is not None:
                states.add(built.state_count)
        tally.expect(op, len(states) == 1, f"closures of {_dk(d, k)} reached {sorted(states)} states")
        timings[f"automaton.build_s.{_dk(d, k)}"] = sorted(laps)[PROBE_REPEATS // 2]
        counts[f"automaton.states.{_dk(d, k)}"] = max(states, default=0)

    laps = []
    for _ in range(PROBE_REPEATS):
        draw = random.Random(seed).getrandbits
        start = perf_counter()
        for _ in range(PROBE_LETTERS):
            draw(2)
        laps.append(perf_counter() - start)
    timings["waiting.rng_ns_per_draw"] = sorted(laps)[PROBE_REPEATS // 2] / PROBE_LETTERS * 1e9
    return timings, counts
