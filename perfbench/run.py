#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload oneshot-cyclic --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and is incremental, so only the first run pays
for compiling. Build output is shown only when the build fails. The
benchmark's own report, ending in one JSON result line, goes to stdout;
the exit code is the benchmark's (non-zero on any failed output check),
or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("oneshot-cyclic", "oneshot-acyclic", "eqsat-incremental")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(source_dir, build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(source_dir, build_dir)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 2
    if binary is None:
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace, "--trace-dir", trace_dir]
    sys.stdout.flush()
    with subprocess.Popen(command) as process:
        try:
            return process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
            return 1
        except KeyboardInterrupt:
            process.kill()
            process.wait()
            return 130


if __name__ == "__main__":
    sys.exit(main())
