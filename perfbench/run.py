#!/usr/bin/env python3
"""Build and run the layered simulator benchmark.

    python3 perfbench/run.py --workload sweep|monitor|hunt --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout. The harness is built from source with
dune in the release profile into .bench_build/, then run with the checkout
root as its working directory; it writes only under .bench_out/. The last
line of standard output is the harness's JSON result. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "pbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout or
    when this script is terminated, and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out, err


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    code, out, err = run_bounded(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/pbench.exe"], BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(EXE):
        sys.stderr.write(out + err)
        fail("build failed")


def run_harness(args):
    """Run the harness once; return its parsed JSON result."""
    code, out, err = run_bounded([EXE, "--out", OUT_DIR] + args, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err)
        fail(f"harness exited with code {code}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out + err)
        fail("harness printed no JSON result")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def self_test():
    """Every workload at its smallest size emits every declared metric,
    finite, with all checks passing; a corrupted reference is counted as
    failed."""
    end_to_end, per_layer, workloads = declared_metrics()
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in workloads:
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            r = run_harness(["--workload", w, "--seed", "7", "--seconds", "1",
                             "--trace", trace, "--small"])
            got = r["metrics"]
            expect(set(got) == set(names),
                   f"{w} trace {trace}: emits exactly the declared metrics")
            expect(all(isinstance(got[n]["value"], (int, float))
                       and math.isfinite(got[n]["value"]) for n in got),
                   f"{w} trace {trace}: every value is finite")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace {trace}: all checks pass")

    golden = os.path.join(ROOT, "bench", "SWEEP_O0.golden")
    flipped = os.path.join(ROOT, OUT_DIR, "golden-flipped")
    with open(golden, "rb") as f:
        data = bytearray(f.read())
    data[100] ^= 0x01
    with open(flipped, "wb") as f:
        f.write(data)
    r = run_harness(["--workload", "sweep", "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--small", "--golden", flipped])
    os.remove(flipped)
    expect(not r["correct"] and r["failed"] >= 1,
           "sweep: one flipped golden byte is counted as failed")
    for w in ("monitor", "hunt"):
        r = run_harness(["--workload", w, "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--small", "--tamper"])
        expect(not r["correct"] and r["failed"] >= 1,
               f"{w}: one altered expected output is counted as failed")
    if problems:
        fail(f"self-test: {len(problems)} check(s) failed")
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    if a.self_test:
        self_test()
        return
    if a.workload is None:
        fail("--workload is required")
    result = run_harness(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace)])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
