#!/usr/bin/env python3
"""Build and run the tml pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload check|repair|serve --seed N \
        --seconds S --trace 0|1

Builds the tml libraries, the tml_serve daemon and the benchmark driver from
the sources in this checkout (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build/, runs one workload, and passes the driver's report through.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
checked against BENCHMARK.json before it is printed. Exits non-zero, without
a result line, if the build, the run or that check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if hasattr(os, "sched_getaffinity"):
        jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "tml_serve"])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["check", "repair", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--serve-bin", os.path.join(build_dir, "tml_tools", "tml_serve"),
               "--build-type", BUILD_TYPE]
    # Own process group, so a timeout also takes down the daemon it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail("driver exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace == 1)
    if got != want:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail("metrics differ from BENCHMARK.json: got %s, want %s" %
             (sorted(got.items()), sorted(want.items())))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
