#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds the library from src/ plus the benchmark driver (Release) into the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs only
re-check the build. Build output goes to standard error, so the last line
of standard output is the benchmark's one-line JSON result. Results and
(traced runs) span files are written under .bench_out/.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(command, cwd, timeout):
    try:
        done = subprocess.run(command, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", bench_dir, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], root, BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "-j", "4"], root,
             BUILD_TIMEOUT_S)

    binary = os.path.join(build_dir, "perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=root,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
