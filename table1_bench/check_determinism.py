"""Determinism check: the counts a later change may cite repeat exactly.

    python3 table1_bench/check_determinism.py [--workload NAME] [--seed N]

Runs the traced pass of each workload (all of them by default) twice,
in processes with different ``PYTHONHASHSEED``, and compares the counts
below.  A count that differs cannot back a claim, so any difference
exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import workloads

COUNTS = (
    "loop.iterations",
    "traces.final_count",
    "sat.propagations",
    "sat.propagations_in_T",
    "oracle.strengthening_rounds",
    "learn.states",
)
HASH_SEEDS = (1, 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    same = True
    for name in names:
        values = []
        for hash_seed in HASH_SEEDS:
            deadline = time.monotonic() + run.TIME_LIMIT
            traced = run.run_pass(
                name, args.seed, "traced", deadline, hash_seed=hash_seed
            )
            metrics, _table = run.per_layer(traced)
            values.append({count: metrics[count][0] for count in COUNTS})
        for count in COUNTS:
            pair = [v[count] for v in values]
            verdict = "same" if pair[0] == pair[1] else "DIFFERENT"
            same &= pair[0] == pair[1]
            print(f"{name:<14} {count:<28} {pair[0]:>12} {pair[1]:>12}  {verdict}")
    print("counts identical across hash seeds" if same else "counts DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
