#!/usr/bin/env python3
"""Build and run the FuseDP benchmark driver.

Run from the root of a FuseDP source tree:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The driver (perfbench/main.cpp) is configured and built into the directory
named by CARGO_TARGET_DIR, default .bench_build, on first use; later runs
only re-check the build.  Build output goes to stderr.  The driver's stdout
is passed through; its last line is the result object.  Before passing it
on, this script checks that the result names exactly the metrics
BENCHMARK.json lists for the run's mode (end_to_end for --trace 0,
per_layer for --trace 1) with the same units.

Exit codes: the driver's own (0 ok, 1 wrong output, 2 usage, 3 set-up
failure), 4 when the build fails, 5 when the printed metrics disagree with
BENCHMARK.json, 6 when the driver times out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
# Source files whose digest keys the driver's cross-run ledgers.
DIGEST_DIRS = ["src", "perfbench"]
DIGEST_FILES = ["bench/bench_common.cpp", "bench/bench_common.hpp"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    bdir = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    exe = os.path.join(bdir, "perfbench_driver")
    return exe if os.path.exists(exe) else None


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in DIGEST_FILES]
    for d in DIGEST_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(section):
    """{name: unit} of BENCHMARK.json's `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(printed, section):
    """Problems with a {name: unit} map against BENCHMARK.json's section."""
    declared = declared_metrics(section)
    problems = []
    for name in sorted(set(declared) - set(printed)):
        problems.append("%s: listed in BENCHMARK.json but not printed" % name)
    for name in sorted(set(printed) - set(declared)):
        problems.append("%s: printed but not listed in BENCHMARK.json" % name)
    for name in sorted(set(declared) & set(printed)):
        if declared[name] != printed[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (name, printed[name], declared[name]))
    return problems


def self_test(exe):
    failures = 0
    if subprocess.run([exe, "--self-test"], stdout=sys.stderr).returncode != 0:
        failures += 1
    listing = subprocess.run([exe, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
    printed = {"end_to_end": {}, "per_layer": {}}
    for line in filter(None, listing):
        section, name, unit = line.split()
        printed[section][name] = unit
    for section, metrics in printed.items():
        for problem in check_metrics(metrics, section):
            log("self-test FAILED: " + problem)
            failures += 1
    log("self-test: %s" % ("ok" if failures == 0 else "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 4
    if args.self_test:
        return self_test(exe)
    if not args.workload:
        ap.error("--workload is required")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "work"),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return 6
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("driver exited with code %d" % proc.returncode)
        return proc.returncode or 3
    result = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    problems = check_metrics(
        {k: v["unit"] for k, v in result["metrics"].items()}, section)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        for p in problems:
            log("metric mismatch: " + p)
        return 5
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
