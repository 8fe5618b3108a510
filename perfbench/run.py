#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload scan|interactive \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the repo's ../src) into $CARGO_TARGET_DIR or
.bench_build; later runs rebuild incrementally. Build output and the
benchmark's own unit tests go to stderr; the benchmark's last stdout line
is one JSON object with "correct", "attempted", "failed" and "metrics".
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "interactive")
# Beyond --seconds: set-ups, layer probes and the traced run's extras.
RUN_OVERHEAD_S = 145


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE} (need ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gsbench", "perfbench_tests"])
    steps.append([os.path.join(build_dir, "perfbench_tests"), "--gtest_brief=1"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"{' '.join(cmd)} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_dir, "perfbench")
    build(build_dir)

    # Relative paths keep unix socket names short whatever the checkout path.
    work = os.path.relpath(os.path.join(build_dir, f"work-{os.getpid()}"))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "gsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--trace-out", os.path.join(traces,
                                       f"{args.workload}-seed{args.seed}.json")]
    timeout = args.seconds + RUN_OVERHEAD_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"gsbench ran longer than {timeout} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"gsbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("gsbench printed a malformed result line")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
