"""One round of one workload in a fresh process; prints one JSON line.

    python3 bench/round.py --workload law_tables --seed 1 [--trace] [--reduced]
                           [--setup-only]

The round imports `lieconformal` from `src/` of the checkout this file
sits in, builds the workload (the timed set-up), runs every operation of
the workload once in a closed loop, then checks the outputs.  With
`--trace` the layer wrappers are installed before set-up and removed
before the checks, the JSON carries the per-layer metrics, and the spans
are written to `bench/out/spans-<workload>-<seed>.json.gz`.

Times are reported in nominal seconds (see `hostspeed.py`); the raw
wall time of the operations, without the reference samples taken inside
them, is reported alongside.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import SpeedTrack
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    clock = time.perf_counter
    speed = SpeedTrack()
    speed.sample()
    # set-up: import the package, load the inputs (and integrate, per workload)
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    lc = importlib.import_module("lieconformal")
    importlib.import_module("lieconformal.dsl")
    importlib.import_module("lieconformal.cli")
    if Path(lc.__file__).resolve().parent != ROOT / "src" / "lieconformal":
        print(f"imported lieconformal from {lc.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](lc, ROOT, args.seed, args.reduced)
    t1 = clock()
    speed.sample()
    setup_s = speed.nominal(t0, t1)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not tracer:
        # a traced round takes no samples inside its operations: they would
        # count in its self times
        speed.start_timer()
    results, intervals = [], []
    for label, fn in workload.operations():
        t = clock()
        result = tracer.op(fn) if tracer else fn()
        intervals.append((t, clock()))
        results.append((label, result))
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_s = [speed.nominal(start, end) for start, end in intervals]

    layers = None
    if tracer:
        layers = tracer.finish()
        (HERE / "out").mkdir(exist_ok=True)
        tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.json.gz")
    problems = workload.check(results)
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": sum(op_s),
        "op_s": op_s,
        "wall_run_s": sum(b - a for start, end in intervals for a, b in speed.pieces(start, end)),
        "reference_s": statistics.median(speed.durations),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failed": workload.failed(results),
        "problems": problems,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
