#!/usr/bin/env python3
"""Builds and runs the attested-gateway benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and compiles the
WaTZ library plus the driver from source (CMake) into $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only check the build is up
to date. Progress goes to stderr; the last line of stdout is the driver's
JSON result. Traced runs (--trace 1) also write one operation's spans as
Chrome trace_event JSON to perfbench-out/<workload>.trace.json.

Exits non-zero without a result line when the sources are missing, the
build fails, or the driver fails or times out.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm-rpc", "batch-fanout", "guest-kernels", "tenant-onboard")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "gateway", "gateway.hpp")):
        fail(f"the WaTZ sources are not under {ROOT}/src; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, "perfbench-out")]
    # Set-up and the traced run's layer microbenchmarks come on top of
    # --seconds; anything far beyond that is a hang.
    limit = 2 * args.seconds + 90
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {limit:.0f} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"driver exited with code {proc.returncode} and no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver exited with code {proc.returncode}; last line is not a result")
    if set(result) != RESULT_KEYS:
        fail("driver result has the wrong keys")
    print("\n".join(lines))
    sys.stdout.flush()
    # A broken output check still reports its result line (correct=false).
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
