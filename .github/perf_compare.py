#!/usr/bin/env python3
"""Judge a change's wall time against its parent on the same host.

    python3 .github/perf_compare.py PARENT_TREE CHANGE_TREE

Runs each tree's own, unmodified perfbench in alternating pairs on the
-O0 sweep leg (`sweep`) and the -O2 leg (`monitor`). Fails when any run
reports `correct: false` or `failed > 0`, or when the change's median
`wall_s` exceeds the parent's median by more than the `wall_s` bound
declared in the change's BENCHMARK.json. Both trees run on the same
machine in the same job, so the host cancels out of the comparison.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("sweep", "monitor")
PAIRS = 3
ARGS = ["--seed", "11", "--seconds", "10", "--trace", "0"]


def run(tree, workload):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload] + ARGS
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def wall_bound(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = {"parent": sys.argv[1], "change": sys.argv[2]}
    bound = wall_bound(trees["change"])
    problems = []
    for workload in WORKLOADS:
        walls = {"parent": [], "change": []}
        for i in range(PAIRS):
            # Flip the order every pair so drift on the host hits both sides.
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run(trees[side], workload)
                wall = r["metrics"]["wall_s"]["value"]
                walls[side].append(wall)
                print(f"{workload} pair {i + 1} {side}: wall_s {wall:.3f} "
                      f"correct {r['correct']} failed {r['failed']}")
                if not r["correct"] or r["failed"] > 0:
                    problems.append(f"{workload} {side}: correct {r['correct']}, "
                                    f"failed {r['failed']}")
        parent = statistics.median(walls["parent"])
        change = statistics.median(walls["change"])
        limit = parent * (1 + bound)
        print(f"{workload}: median wall_s parent {parent:.3f}, change "
              f"{change:.3f}, limit {limit:.3f}")
        if change > limit:
            problems.append(f"{workload}: wall_s {change:.3f} > {limit:.3f}")
    if problems:
        sys.exit("perf-compare failed:\n  " + "\n  ".join(problems))
    print("perf-compare passed")


if __name__ == "__main__":
    main()
