#!/usr/bin/env python3
"""Build hlbench from source, then run it.

    python3 hlbench/run.py --workload recall_storm --seed 1 --seconds 10 --trace 0

Run from the repository root. The build directory is $CARGO_TARGET_DIR when
set (resolved against the repository root), else .bench_build. Build output
goes to stderr so the benchmark's last stdout line stays its JSON result.
The traced run's spans land in <build dir>/hlbench_spans_<workload>.json.
Exits non-zero, without a result line, when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    # One CMake tree per source checkout, so a build directory shared by
    # two checkouts never reuses a cache configured for the other.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    cmake_dir = os.path.join(out, f"hlbench-{tag}")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "hlbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "hlbench")


def main(argv):
    workload = "run"
    if "--workload" in argv[:-1]:
        workload = argv[argv.index("--workload") + 1]
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hlbench: build failed: {err}", file=sys.stderr)
        return 3
    spans = os.path.join(out, f"hlbench_spans_{os.path.basename(workload)}.json")
    try:
        done = subprocess.run([binary, *argv, "--spans-out", spans],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hlbench: run timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
