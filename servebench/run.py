#!/usr/bin/env python3
"""Builds and runs the serve-path benchmark.

Run from the root of a checkout:

    python3 servebench/run.py --workload fed_cold_r2 --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --selftest

The first call configures and builds servebench (a Release build of the
repository's libraries plus the load generator) in $CARGO_TARGET_DIR,
default .bench_build; later calls only rebuild what changed. Build output
goes to stderr; the generator's report goes to stdout, and its last line
is the JSON result. --selftest builds and runs the benchmark's own tests
and checks that BENCHMARK.json names exactly the metrics the generator
prints.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.hpp")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout of the repository")
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def selftest():
    listing = subprocess.run([build("servebench"), "--list"],
                             capture_output=True, text=True, check=True).stdout.split()
    printed = {"end_to_end": [], "per_layer": []}
    for kind, name, unit in zip(listing[0::3], listing[1::3], listing[2::3]):
        printed[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind in printed:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            print(f"FAIL BENCHMARK.json {kind} differs from the generator's metrics")
            ok = False
        else:
            print(f"ok   BENCHMARK.json {kind} matches the generator's metrics")
    tests = subprocess.run([build("servebench_tests")])
    return 0 if ok and tests.returncode == 0 else 1


def main():
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    binary = build("servebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
