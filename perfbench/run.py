#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload run-books --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake package that
compiles the crowdfusion libraries from the enclosing tree, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild only what changed. Build output goes to stderr. The
benchmark's stdout is passed through; its last line is the result JSON.
With --trace 1 the spans are also written to
<build dir>/traces/<workload>-seed<seed>.jsonl.

Exits 2 when the build fails (for instance outside a full checkout) and 1
when the benchmark fails; neither prints a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out_dir):
    """Configures (once) and builds the benchmark; True on success."""
    generated = any(os.path.exists(os.path.join(out_dir, name))
                    for name in ("build.ninja", "Makefile"))
    steps = []
    if not generated:
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j4", "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"build failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def run(command):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        print(f"benchmark timed out after {error.timeout} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    if args.self_test:
        code, stdout = run([os.path.join(out_dir, "perfbench_selftest")])
        sys.stdout.write(stdout)
        return code

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    code, stdout = run(command)
    lines = stdout.rstrip("\n").split("\n")
    if code != 0 or not is_result(lines[-1]):
        # Keep the diagnostics, never a result line.
        sys.stderr.write(stdout)
        print(f"benchmark failed (exit code {code})", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
