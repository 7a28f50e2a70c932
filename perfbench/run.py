"""Benchmark entry point: runs one workload in fresh interpreters and reports.

    python3 perfbench/run.py --workload {simulate,scan,check,exact} --seed N --seconds S --trace {0,1}

With --trace 0 it runs untraced passes of the workload, one fresh interpreter
per pass and one pass after another.  The number of passes depends only on
the workload and S, so that it is the same for every version of the library
measured; at the speed of the code the benchmark was written against, they
take about S seconds.  It reports the end-to-end metrics: the pass time, as
the sum of each operation's median time over the passes, and the median
set-up time and memory, all times at the reference speed (reference.py).
With --trace 1 it runs the layer suite instead (probes, then an untraced and
a traced pass of every workload) and reports the per-layer metrics and the
tracing overhead of each workload.  Either way it writes every sample and the
run's provenance to perfbench/out/<workload>-seed<N>-trace<0|1>.json, prints
each metric with its unit, and prints one JSON object as the last line.  The exit code is 0 only
when every operation passed its checks and every count repeated exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Optional, Sequence

from stats import percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("simulate", "scan", "check", "exact")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}
PER_LAYER = {
    "automaton.step_ns": "ns",
    "automaton.build_s.d3k3": "s",
    "automaton.build_s.d4k3": "s",
    "automaton.states.d3k3": "count",
    "automaton.states.d4k3": "count",
    "automaton.transitions_built.d2k2": "count",
    "automaton.transitions_built.d3k3": "count",
    "automaton.transitions_built.d4k3": "count",
    "waiting.simulate_s.d2k2": "s",
    "waiting.simulate_s.d3k3": "s",
    "waiting.simulate_s.d4k3": "s",
    "waiting.letters.d2k2": "count",
    "waiting.letters.d3k3": "count",
    "waiting.letters.d4k3": "count",
    "waiting.ns_per_letter.d2k2": "ns",
    "waiting.ns_per_letter.d3k3": "ns",
    "waiting.ns_per_letter.d4k3": "ns",
    "waiting.rng_ns_per_draw": "ns",
    "waiting.rng_share.d3k3": "ratio",
    "waiting.brute_force_pmf_s": "s",
    "waiting.pmf_table_s.d3": "s",
    "classify.strict_scan_s": "s",
    "classify.strict_scan_nodes": "count",
    "classify.iter_strict_s": "s",
    "classify.iter_strict_words": "count",
    "classify.flanking_us": "us",
    "classify.terminal_min_s": "s",
    "classify.alt_count_s": "s",
    "classify.classify_us": "us",
    "classify.missing_us": "us",
    "classify.min_length_s": "s",
    "classify.quaternary_s": "s",
    "patterns.contains_calls": "count",
    "patterns.contains_us": "us",
    "patterns.hit_ratio": "ratio",
    "series.expand_s.d3": "s",
    "series.moments_s": "s",
    "cli.pmf_s": "s",
    "cli.gf_s": "s",
    "cli.moments_s": "s",
    "cli.counts_s": "s",
    "cli.format_share": "ratio",
    "oeis.check_s": "s",
    **{f"trace.overhead_s.{workload}": "s" for workload in WORKLOADS},
}

# Wall seconds per untraced pass, worker start to exit, at the commit the
# benchmark was written against (2-vCPU Xeon VM, Python 3.11).  A run makes
# --seconds / this many passes, at least MIN_PASSES, so both sides of a
# comparison take their medians over the same number of passes.
PASS_WALL_S = {"simulate": 3.9, "scan": 3.5, "check": 3.8, "exact": 2.9}
MIN_PASSES = 3
# Stop starting passes this long after the run began, and kill a pass still
# running at RUN_LIMIT_S, so that the whole run ends inside three minutes
# whatever --seconds says or however slow the code is.
HARD_STOP_S = 120
RUN_LIMIT_S = 170
# ROADMAP north-star anchors this machine is checked against.
ANCHOR_D3K3_STATES = 646
ANCHOR_D3K3_TRIALS_PER_S = (4e5, 5e5)


class PassFailed(RuntimeError):
    """A worker exited nonzero or printed no result."""


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {mode} pass still running after {RUN_LIMIT_S} s into the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Counts:
    """Counts that must repeat exactly for one seed, across every pass."""

    def __init__(self) -> None:
        self.seen: dict[str, set[int]] = defaultdict(set)

    def add(self, counts: dict[str, int]) -> None:
        for name, value in counts.items():
            self.seen[name].add(value)

    def mismatches(self) -> list[str]:
        return [f"count {name} differs across passes: {sorted(v)}" for name, v in self.seen.items() if len(v) > 1]

    def values(self) -> dict[str, int]:
        return {name: min(v) for name, v in self.seen.items()}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_WALL_S[workload]))


def median_ops(passes: list[dict]) -> list[float]:
    """Each operation's median time across passes.  Every pass runs the same
    operations on the same inputs, in the same order."""
    columns = [p["op_seconds"] for p in passes]
    if len({len(c) for c in columns}) != 1:
        raise PassFailed("passes ran different numbers of operations")
    return [median(times) for times in zip(*columns)]


def plain_run(workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    passes = []
    for _ in range(pass_count(workload, seconds)):
        if passes and time.monotonic() - started > HARD_STOP_S:
            break
        passes.append(run_pass(workload, seed, "plain", started + RUN_LIMIT_S))
    counts = Counts()
    for p in passes:
        counts.add(p["counts"])
    # pass_s adds up each operation's median time across the passes, at the
    # reference speed (reference.py), so that neither a slow spell of the
    # host during one operation nor one covering the whole run moves it much.
    op_median = median_ops(passes)
    metrics = {
        "setup_s": median([p["setup_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "pass_s": sum(op_median),
    }
    derived: dict[str, float] = {
        "reference_lap_s_median": median([p["reference_lap_s"] for p in passes]),
        "pass_cpu_s_median": median([p["pass_s"] for p in passes]),
        "pass_wall_s_median": median([p["pass_wall_s"] for p in passes]),
        "pass_wall_s_min": min(p["pass_wall_s"] for p in passes),
    }
    for key in passes[0]["summary"]:
        values = [p["summary"][key] for p in passes]
        if key == "query_ms":
            pooled = [v for sample in values for v in sample]
            derived["check_p50_ms"] = percentile(pooled, 50)
            derived["check_p99_ms"] = percentile(pooled, 99)
            derived["check_latency_samples"] = len(pooled)
            derived["check_samples_beyond_p99"] = samples_beyond(len(pooled), 99)
        else:
            derived[key] = median(values)
    for p in passes:
        p["summary"].pop("query_ms", None)
        p.pop("op_seconds")
    return {
        "passes": passes,
        "metrics": metrics,
        "units": END_TO_END,
        "derived": derived,
        "counts": counts,
        "op_median_s": op_median,
    }


def traced_run(seed: int) -> dict:
    """One round of the layer suite: the probes, then an untraced and a traced
    pass of every workload.  Every traced run prints every layer metric, so
    the round covers all workloads whichever one is named."""
    deadline = time.monotonic() + RUN_LIMIT_S
    probe = run_pass("probe", seed, "probe", deadline)
    layers = dict(probe["layers"])
    layers.update(probe["counts"])
    passes = [probe]
    for workload in WORKLOADS:
        plain = run_pass(workload, seed, "plain", deadline)
        traced = run_pass(workload, seed, "traced", deadline)
        # Operation times are at the reference speed, so the host's speed
        # during each pass cancels out of the difference.
        overhead = sum(traced["op_seconds"]) - sum(plain["op_seconds"])
        for p in (plain, traced):
            p["summary"].pop("query_ms", None)
            p.pop("op_seconds")
        passes += [plain, traced]
        layers.update(traced["layers"])
        layers.update(traced["counts"])
        layers[f"trace.overhead_s.{workload}"] = overhead
    # Computed, not measured: the share of the (3,3) simulation an RNG call
    # would take if every letter cost 4/3 draws (rejection of 1 in 4).
    layers["waiting.rng_share.d3k3"] = (
        layers["waiting.letters.d3k3"] * 4 / 3 * layers["waiting.rng_ns_per_draw"] * 1e-9
        / layers["waiting.simulate_s.d3k3"]
    )
    counts = Counts()
    for p in passes:
        counts.add(p["counts"])
    metrics = {name: layers[name] for name in PER_LAYER}
    return {"passes": passes, "metrics": metrics, "units": PER_LAYER, "derived": {}, "counts": counts}


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_revision() -> Optional[dict]:
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode != 0:
        return None
    return {"revision": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def source_digest() -> str:
    """sha256 over the library and benchmark sources, which identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "superpatterns").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git": _git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def anchors(report: dict) -> dict:
    """Whether this machine reproduces the ROADMAP north-star anchors, where
    this run measured them."""
    out = {}
    states = report["counts"].values().get("automaton.states.d3k3")
    if states is not None:
        out["d3k3_closes_at_646_states"] = {"measured": states, "reproduced": states == ANCHOR_D3K3_STATES}
    trials_per_s = report["derived"].get("sim_trials_per_s.d3k3")
    if "waiting.simulate_s.d3k3" in report["metrics"]:
        trials_per_s = 1_000_000 / report["metrics"]["waiting.simulate_s.d3k3"]
    if trials_per_s is not None:
        low, high = ANCHOR_D3K3_TRIALS_PER_S
        out["d3k3_simulation_0.4-0.5M_trials_per_s"] = {
            "measured": trials_per_s,
            "reproduced": low <= trials_per_s <= high,
        }
    return out


def _earlier_counts(path: Path, digest: str) -> dict[str, int]:
    """Counts from an earlier run of the same code, workload, seed and mode."""
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if earlier.get("provenance", {}).get("source_sha256") != digest:
        return {}
    return earlier.get("counts", {})


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="superpatterns benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "superpatterns" / "__init__.py").is_file():
        print(f"perfbench: no src/superpatterns under {ROOT}; run it from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report = traced_run(args.seed)
        else:
            report = plain_run(args.workload, args.seed, args.seconds)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = report["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    prov = provenance(args)
    OUT_DIR.mkdir(exist_ok=True)
    results_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    mismatches = report["counts"].mismatches()
    for name, value in _earlier_counts(results_path, prov["source_sha256"]).items():
        if report["counts"].values().get(name, value) != value:
            mismatches.append(f"count {name} differs from the earlier run: {value}")
    failures += mismatches
    failed += len(mismatches)
    correct = failed == 0

    units = report["units"]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()}
    results = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:50],
        "metrics": metrics,
        "workload_metrics": report["derived"],
        "counts": report["counts"].values(),
        "anchors": anchors(report),
        "op_median_s": report.get("op_median_s"),
        "passes": passes,
    }
    results_path.write_text(json.dumps(results, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, results in {results_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in report["derived"].items():
        print(f"  {name:36s} {value:.6g}")
    print(f"  {'fail_ratio':36s} {failed}/{attempted}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
