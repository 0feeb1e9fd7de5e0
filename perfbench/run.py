#!/usr/bin/env python3
"""Build and run the QUETZAL end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig13a --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The simulator libraries and the
benchmark program are built from source into .bench_build/ on first use.
The last line of stdout is one JSON object; its metric names and units
are checked against BENCHMARK.json before it is printed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure once and build @p target; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s/src: run from a full "
             "checkout" % ROOT, 2)
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool, 2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", target])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build step failed: " + " ".join(step), 2)


def check(result, trace):
    """Validate the result line against the metric lists in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return "%s is not a whole number" % key
    if result["attempted"] < 1:
        return "no operation attempted"
    metrics = result["metrics"]
    names = {m["name"] for m in want}
    if set(metrics) != names:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(names - set(metrics)), sorted(set(metrics) - names))
    for m in want:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            return "%s has unit %r, expected %r" % (m["name"], got.get("unit"),
                                                    m["unit"])
        if not isinstance(got.get("value"), (int, float)):
            return "%s has no numeric value" % m["name"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        build("qzbench_tests")
        sys.exit(subprocess.run([os.path.join(BUILD, "qzbench_tests")],
                                cwd=ROOT).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    build("qzbench")
    workdir = os.path.join(BUILD, "work-" + args.workload)
    command = [os.path.join(BUILD, "qzbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Stores are rebuilt by every run; keep only the trace.
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                if name.endswith(".qzs"):
                    os.remove(os.path.join(workdir, name))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no JSON result")
    problem = check(result, args.trace == 1)
    if problem:
        fail(problem)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
