#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload monitor --runs 10 [--trace 0]

Runs perfbench/run.py once per seed (1..runs, or one seed with --same-seed) and prints, per metric, the
median and the distance between the first and third quartiles as a share
of the median (statistics.quantiles(values, n=4)) next to the metric's
bound from BENCHMARK.json. Deterministic counts (--trace 1) should show a
spread of 0 only across runs of one seed; across seeds they differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--same-seed", action="store_true",
                   help="repeat --first-seed: host noise only")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    values = {}
    for i in range(a.runs):
        seed = a.first_seed if a.same_seed else a.first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(a.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()
                         if k in bounds)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {shown}", flush=True)
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- over bound/3"
        print(f"{name:32s} median {med:14.6g}  iqr/median {share:8.4f}"
              f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
