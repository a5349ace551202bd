#!/usr/bin/env python3
"""Run one workload of the simulator benchmark (see README.md).

    python3 perfbench/run.py --workload redcache_lu --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the simulator and the measuring
program from source into .bench_build/ (the first run compiles; later runs
only check the build), runs the workload, checks its outputs and prints the
result object as the last line of standard output. Build output and
diagnostics go to standard error. Exits non-zero without a result when the
build or the measuring program fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds (at most 60) plus its set-up and checks.
RUN_TIMEOUT_S = 170
# Both change what a run simulates; results taken under either are not
# comparable with any other.
REFUSED_ENV = ("REDCACHE_NO_SKIP", "REDCACHE_REFS_SCALE")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src", 2)
    jobs = str(max(len(os.sched_getaffinity(0)), 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line's shape, against BENCHMARK.json; "" when it fits."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return (f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                f"{sorted(want.items())}")
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set", 2)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json at {ROOT}", 2)

    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--telemetry-validator",
           os.path.join(ROOT, "scripts", "check_telemetry.py")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"measuring program exited with {proc.returncode}")
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(proc.stdout)
        fail(problem)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
