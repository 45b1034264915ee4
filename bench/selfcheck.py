"""Self-check of the benchmark: per-layer counts do not depend on the hash seed.

    python3 bench/selfcheck.py

Runs a traced round of every workload on its reduced input twice, under
PYTHONHASHSEED=1 and PYTHONHASHSEED=2, and asserts that every call count,
memo size, cell count and hit ratio is identical between the two, and
that both rounds pass their output checks.  Exits 0 when all agree.
"""

from __future__ import annotations

import os
import sys
import time

from run import round_report
from workloads import WORKLOADS

HASH_SEEDS = ("1", "2")
COUNT_SUFFIXES = (".calls", ".memo", ".cells", ".hit_ratio")
ROUND_TIMEOUT_S = 300


def traced_round(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    args = ["--workload", workload, "--seed", "1", "--reduced", "--trace"]
    try:
        return round_report(args, time.monotonic() + ROUND_TIMEOUT_S, env)
    except RuntimeError as exc:
        raise SystemExit(f"{workload} under PYTHONHASHSEED={hash_seed} failed: {exc}")


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        reports = [traced_round(workload, h) for h in HASH_SEEDS]
        counts = [{k: v for k, v in r["layers"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in reports]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems = [p for r in reports for p in r["problems"]]
        same_ops = all((r["attempted"], r["failed"]) == (reports[0]["attempted"],
                                                           reports[0]["failed"])
                       for r in reports)
        good = not differing and not problems and same_ops
        ok = ok and good
        print(f"{workload}: {len(counts[0])} counts, "
              f"{'identical' if not differing else 'differ: ' + ', '.join(differing)}; "
              f"{reports[0]['attempted']} operations, {reports[0]['failed']} failed; "
              f"{'checks pass' if not problems else problems[:3]}")
        for name in sorted(counts[0]):
            if name.endswith(".memo"):
                print(f"  {name} = {counts[0][name]}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
