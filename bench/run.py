"""Benchmark of the lieconformal kernel: one workload, one seed, one run.

    python3 bench/run.py --workload law_tables --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from its
`src/`, the inputs come from its `tests/data/`.  Each round of the
workload runs in a fresh process (`bench/round.py`), one after another,
with one thread and one caller in a closed loop.  Rounds start until
`--seconds` have passed, so a run measures whole rounds only.  Set-up is
also timed in separate set-up-only processes.  Times are in nominal
seconds, corrected for the drifting speed of a shared host by an
interleaved reference computation (`hostspeed.py`).

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the run makes one untraced and
one traced round and reports the per-layer metrics plus the tracing
overhead.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
MIN_ROUNDS = 2  # every workload then times at least 100 operations
MIN_OPS = 100  # fewer give no 90th percentile worth reporting
DEADLINE_S = 170  # every run ends well inside three minutes


def last_json(cmd: list[str], deadline: float, env: dict | None = None) -> dict:
    """Run a benchmark script from the checkout root; return its last output line as JSON."""
    proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def round_report(args: list[str], deadline: float, env: dict | None = None) -> dict:
    """Run one round process (`round.py`) and return its JSON report."""
    return last_json([str(HERE / "round.py"), *args], deadline, env)


def _check_checkout() -> str | None:
    if not (ROOT / "src" / "lieconformal" / "__init__.py").is_file():
        return f"no lieconformal package under {ROOT / 'src'}"
    if not list((ROOT / "tests" / "data").glob("*.lca")):
        return f"no .lca inputs under {ROOT / 'tests' / 'data'}"
    return None


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list]:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [round_report(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS)]
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds.append(round_report(base, deadline))
    op_s = [t for r in rounds for t in r["op_s"]]
    if len(op_s) < MIN_OPS:
        raise RuntimeError(f"{len(op_s)} operations timed, fewer than {MIN_OPS}")
    metrics = {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "op_p50_ms": (statistics.median(op_s) * 1000, "ms"),
        "op_p90_ms": (_p90(op_s) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return metrics, rounds


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    base = ["--workload", workload, "--seed", str(seed)]
    plain = round_report(base, deadline)
    traced = round_report(base + ["--trace"], deadline)
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    metrics["host.wall_run_s"] = (plain["wall_run_s"], "s")
    metrics["host.reference_ms"] = (plain["reference_s"] * 1000, "ms")
    return metrics, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = _check_checkout()
    if missing:
        print(f"bench: {missing}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, rounds = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, rounds = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for p in problems[:20]:
        print(f"check failed: {p}")
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
