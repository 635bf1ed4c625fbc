#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the adaptive join library.

Run from the repository root:

    python3 perfbench/run.py --workload skew_equi --seed 1 --seconds 10 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is configured and built (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, before every run; an up-to-date build is a no-op. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.

Other modes:
    --test                 build, then run the benchmark's own logic tests
    --corrupt-reference    passed through: proves a wrong result count fails

Exit codes: the benchmark's own (0 ok, 1 output mismatch, 2 usage), or 3
when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out, target):
    """Configures (once) and builds `target`; returns True on success."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", target]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out, "perfbench_tests" if args.test else "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.test:
        return subprocess.call([os.path.join(out, "perfbench_tests")])

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--out-dir", out]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
