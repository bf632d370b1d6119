#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload hist-rib --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the library and the driver from
source in Release into .bench_build/perfbench (incremental after the
first run), then runs the driver, which generates its inputs from the
seed under .bench_work/ and prints a metric table followed by one JSON
result line. That JSON line is the last line of standard output; build
output goes to standard error. --selftest builds and runs the tests of
the benchmark's own arithmetic instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("hist-rib", "pool-collectors")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found (%s missing under %s)"
                 % (needed, ROOT))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_measure_test"])
        test = subprocess.run([os.path.join(BUILD, "perfbench_measure_test")])
        sys.exit(test.returncode)
    if not args.workload:
        fail("--workload is required")

    build(["perfbench_driver"])
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("driver exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        fail("driver printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
