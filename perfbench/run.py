#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the driver (perfbench/CMakeLists.txt, which builds the repository's
libraries from source) under .bench_build/perfbench; later runs only
rebuild what changed. The driver's report goes to stdout, and its
last line is the result object; build output goes to stderr. The
exit code is the driver's: non-zero when an output check failed.
With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace JSON).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the driver incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4",
                      "--target", "perfbench_driver"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The runtime's own telemetry and tier overrides stay off: the
    # benchmark fixes its settings itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("M2X_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: driver printed no result (exit %d)"
                 % proc.returncode)
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: metric set differs from BENCHMARK.json: "
                 "missing %s, extra %s" % (
                     sorted(set(want) - set(result["metrics"])),
                     sorted(set(result["metrics"]) - set(want))))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
