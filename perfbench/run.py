#!/usr/bin/env python3
"""Builds and runs one workload of the rdfast end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/ (its own CMake
package, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs rdbench.  The last line of standard output is the
result: one JSON object with "correct", "attempted", "failed" and
"metrics".  The exit status is 0 only when the build succeeded and every
correctness check of the run held.  perfbench/DESIGN.md describes the
workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("classify-h1", "classify-h2", "atpg", "serve")
HERE = os.path.dirname(os.path.abspath(__file__))
# rdbench bounds its own work (per-job deadlines, a hard stop); this
# is the backstop that keeps one command under three minutes.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configures (once) and builds rdbench; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    commands = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    commands.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for command in commands:
            try:
                code = subprocess.run(
                    command, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(command))
                return None
    return os.path.join(build_dir, "rdbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--expected", os.path.join(HERE, "expected.json")]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: rdbench exceeded %d s\n"
                         % RUN_TIMEOUT_S)
        return 1
    lines = result.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write("perfbench: rdbench printed no result (exit %d)\n"
                         % result.returncode)
        return 1
    print(lines[-1])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
