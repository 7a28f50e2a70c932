"""In-memory spans around calls into the library, installed only for traced passes.

A span is (name, start, end, parent).  Spans live in flat arrays for the whole
pass and are reduced or written out once, after the timed region.  Wrappers
replace public names in every ``superpatterns`` module namespace that holds
them, so calls between library modules are traced as well as calls from the
benchmark; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.true_results: Counter[str] = Counter()
        self._open: list[int] = []
        self.enabled = False

    @property
    def span_count(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        label: Optional[Callable[..., str]] = None,
        generator: bool = False,
        count_true: bool = False,
    ) -> Callable:
        """Traced stand-in for fn.

        label(*args) appends a suffix to the span name, e.g. the (d, k) of a
        simulation.  A generator function is drained inside its span, so the
        span covers producing the items rather than creating the generator.
        count_true tallies truthy results per span name, for hit ratios.
        """
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            key = name if label is None else f"{name}.{label(*args, **kwargs)}"
            idx = tracer.open(key)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                tracer.close(idx)
            if count_true and result:
                tracer.true_results[key] += 1
            return iter(result) if generator else result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The program is single-threaded, so children of one span never
        overlap and their durations can simply be summed.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, truthy results."""
        own = self.self_times()
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        for name, hits in self.true_results.items():
            table[name]["true"] = hits
        return table

    def children_total(self, parent_name: str) -> float:
        """Seconds spent in direct children of every span named parent_name."""
        nid = self._name_ids.get(parent_name)
        if nid is None:
            return 0.0
        parents = {i for i, n in enumerate(self.name_id) if n == nid}
        return sum(
            self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p in parents
        )

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines: index, name, start and end
        in ns from the first span, parent index (-1 at the top)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{round((self.start[i] - origin) * 1e9)}\t"
                    f"{round((self.end[i] - origin) * 1e9)}\t{self.parent[i]}\n"
                )


def _dk(d: int, k: int, *_args, **_kwargs) -> str:
    return f"d{d}k{k}"


def _d(d: int, *_args, **_kwargs) -> str:
    return f"d{d}"


# (module, attribute path, wrap options).  The span name is "<module>.<path>".
TRACED = (
    ("patterns", "contains_pattern", {"count_true": True}),
    ("automaton", "get_automaton", {}),
    ("automaton", "ContainmentAutomaton.step", {}),
    ("automaton", "ContainmentAutomaton.scan", {}),
    ("classify", "is_superpattern", {}),
    ("classify", "missing_patterns", {}),
    ("classify", "classify", {}),
    ("classify", "min_superpattern_length", {}),
    ("classify", "strict_counts_by_length", {}),
    ("classify", "count_strict_superpatterns", {}),
    ("classify", "iter_strict_superpatterns", {"generator": True}),
    ("classify", "iter_strict_minimal_upto_iso", {"generator": True}),
    ("classify", "count_minimal_upto_iso", {}),
    ("classify", "count_strict_minimal_upto_iso", {}),
    ("classify", "count_beta_bruteforce", {}),
    ("classify", "has_flanking_pairs", {}),
    ("classify", "ends_with_minimum_superpattern", {}),
    ("classify", "verify_quaternary_counterexample", {}),
    ("classify", "count_formulas", {}),
    ("waiting", "simulate_tau", {"label": _dk}),
    ("waiting", "brute_force_pmf", {}),
    ("waiting", "pmf_table", {"label": _d}),
    ("waiting", "waiting_time_gf", {}),
    ("series", "RationalFunction.series_coefficients", {}),
    ("series", "moments_from_gf", {}),
    ("oeis", "check_reference_sequences", {}),
    ("oeis", "load_bfile", {}),
)


def install(tracer: Tracer) -> None:
    """Replace each TRACED name, wherever a loaded superpatterns module holds
    it, by a traced stand-in.  Lasts for the life of the process."""
    for module_name, _, _ in TRACED:
        importlib.import_module(f"superpatterns.{module_name}")
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "superpatterns"]
    for module_name, path, options in TRACED:
        home = sys.modules[f"superpatterns.{module_name}"]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        original = getattr(owner, attr)
        traced = tracer.wrap(f"{module_name}.{path}", original, **options)
        if owner_name:
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
