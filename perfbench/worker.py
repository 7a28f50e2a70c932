"""One pass of one workload, in the fresh interpreter the runner starts for it.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|probe

Prints one JSON object as the last line of standard output.  ``plain`` times
the pass with no tracing, ``traced`` installs the span wrappers first, and
``probe`` runs the single-layer microbenchmarks instead of a workload.
Set-up and operation times are CPU seconds of this process at the reference
speed (reference.py); the pass's own CPU and wall times are reported beside
them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_REPORTED_FAILURES = 20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import reference

    lap = reference.lap()
    start = process_time()
    import workloads  # imports superpatterns and its CLI: part of set-up

    if Path(workloads.sp.__file__).resolve().parent != SRC / "superpatterns":
        print(f"superpatterns was imported from {workloads.sp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result: dict = {"workload": args.workload, "mode": args.mode, "seed": args.seed}

    if args.mode == "probe":
        tally = workloads.Tally()
        result["layers"], result["counts"] = workloads.probe(args.seed, tally)
    else:
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.prepare(args.seed)
        result["setup_s"] = reference.scale(process_time() - start, lap, reference.lap())
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.enabled = True
        tally = workloads.Tally(span=tracer and tracer.span)
        begin, begin_wall = process_time(), perf_counter()
        out = workload.run(inputs, tally)
        result["pass_s"] = process_time() - begin
        result["pass_wall_s"] = perf_counter() - begin_wall
        tally.close()
        result["op_seconds"] = tally.seconds
        result["reference_lap_s"] = median(tally.reference_laps)
        result["peak_rss_mb"] = _peak_rss_mb()
        agg = None
        if tracer is not None:
            tracer.enabled = False
            agg = tracer.aggregate()
        result["counts"] = workload.counts(inputs, out, agg)
        workload.verify(inputs, out, tally)
        result["summary"] = workload.summary(out, tally)
        if tracer is not None:
            result["layers"] = workload.layers(agg, tracer, result["counts"])
            result["spans"] = tracer.span_count
            result["span_table"] = agg
            workloads.OUT_DIR.mkdir(exist_ok=True)
            tracer.write(workloads.OUT_DIR / f"spans-{args.workload}.tsv.gz")

    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["failures"] = list(tally.failures.values())[:MAX_REPORTED_FAILURES]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
