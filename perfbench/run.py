#!/usr/bin/env python3
"""Builds and runs the end-to-end FrameQL benchmark.

    python3 perfbench/run.py --workload cold-mix|warm-mix|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the blazeit library and the benchmark from this
checkout (CMake, RelWithDebInfo, under $CARGO_TARGET_DIR or .bench_build),
runs one workload and prints the benchmark's output; its last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is the benchmark's: 0 when every output check passed. Each result line
is also appended to perfbench-out/results/<workload>.jsonl.

--self-test builds and runs the benchmark's own tests of its output checks.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-mix", "warm-mix", "serve-mix")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds both programs; False on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "frameql_bench", "perfbench_checks_test"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("build failed; last lines of %s:\n" % log_path)
        sys.stderr.write("".join(log.readlines()[-30:]))
    return False


def run_benchmark(args):
    out_dir = os.path.join(ROOT, "perfbench-out")
    spawn_ns = time.monotonic_ns()
    cmd = [os.path.join(build_dir(), "frameql_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--spawn-ns", str(spawn_ns)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write("benchmark exited with %d\n" % proc.returncode)
        return proc.returncode or 1
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, args.workload + ".jsonl"), "a") as f:
        f.write(lines[-1] + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_checks_test")],
            cwd=ROOT).returncode
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
