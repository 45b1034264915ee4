"""Reference figures: run the benchmark over several seeds and summarize.

    python3 bench/spread.py --workload law_tables --seeds 1-10

Runs `bench/run.py --seconds 20 --trace 0` once per seed, one after
another, and prints for each metric its median, first and third
quartiles (`statistics.quantiles`, n=4) and the quartile distance as a
share of the median, plus the attempted and failed counts of every run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import DEADLINE_S, HERE, last_json

SECONDS = 20  # run_seconds of BENCHMARK.json


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    values: dict = {}
    units: dict = {}
    counts = []
    for seed in args.seeds:
        cmd = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
        try:
            doc = last_json(cmd, time.monotonic() + DEADLINE_S + 10)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        counts.append((seed, doc["attempted"], doc["failed"]))
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"| {args.workload} metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("| --- | --- | ---: | ---: | ---: | ---: |")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {share:.3f} |")
    print("seed, attempted, failed:", ", ".join(f"{s}:{a}/{f}" for s, a, f in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
