#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print its result.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --make-fixtures

NAME is one of ra_mixgraph, cache_phases, fleet_zipf, kv_durable. The
last line of standard output is the result, one JSON object with the keys
correct, attempted, failed and metrics; the line before it records
provenance (seed, source id, build type, CPU model, nproc, SIMD tier).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--tiny runs every phase at a fraction of its size (the benchmark's tests).

The build (CMake, RelWithDebInfo) and every file a run writes stay under
.bench_build/ in the repository root. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "cmake")
BINARY = os.path.join(BUILD_DIR, "kml_perfbench")
FIXTURES = os.path.join(HERE, "fixtures")
WORKLOADS = ("ra_mixgraph", "cache_phases", "fleet_zipf", "kv_durable")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MAKE_FIXTURES_TIMEOUT_S = 1800


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, log):
    """Run a build step, its output appended to `log`; False on failure."""
    with open(log, "a") as out:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except (OSError, subprocess.TimeoutExpired) as err:
            out.write("%s\n" % err)
            return False
    return done.returncode == 0


def build():
    os.makedirs(WORK_DIR, exist_ok=True)
    log = os.path.join(WORK_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = (["cmake", "-S", HERE, "-B", BUILD_DIR] + generator +
                     ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        if not call(configure, BUILD_TIMEOUT_S, log):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            tail_and_fail(log, "configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not call(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S,
                log):
        tail_and_fail(log, "build failed")


def tail_and_fail(log, message):
    with open(log) as f:
        sys.stderr.write("".join(f.readlines()[-30:]))
    fail(message + " (log: %s)" % log)


def source_id():
    """The commit, or a digest of the sources when there is no git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git-" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            if "__pycache__" in base:
                continue
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for the mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    declared = declared_metrics(trace)
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if declared is not None and sorted(printed) != sorted(declared):
        fail("printed metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--make-fixtures", action="store_true")
    args = parser.parse_args()
    if not args.make_fixtures and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    build()
    if args.make_fixtures:
        os.makedirs(FIXTURES, exist_ok=True)
        try:
            done = subprocess.run([BINARY, "--make-fixtures", FIXTURES],
                                  cwd=ROOT, timeout=MAKE_FIXTURES_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("fixture generation timed out")
        sys.exit(done.returncode)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fixtures", FIXTURES, "--scratch", WORK_DIR,
           "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("%s exited with code %d" % (args.workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    check_result(result, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
