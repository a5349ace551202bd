#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload over several seeds
and report, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, with statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --seeds 1-10 --json set1.json
    python3 perfbench/spread.py --compare set1.json set2.json

Every run lasts BENCHMARK.json's run_seconds. A metric is steady when its
spread stays under a third of its bound in BENCHMARK.json. --compare
checks that the second set's medians are no worse than the first's by more
than each bound. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median; 0 for an all-zero sample."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def collect(bench, workloads, seeds, seconds):
    samples = {}
    for w in workloads:
        samples[w] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            values = run_once(w, seed, seconds)
            for name, v in values.items():
                samples[w][name].append(v)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in values.items()), file=sys.stderr)
    return samples


def report(bench, samples):
    steady = True
    print(f"{'workload':22s} {'metric':14s} {'median':>14s} {'spread':>8s} "
          f"{'bound/3':>8s}")
    for w, metrics in samples.items():
        for m in bench["end_to_end"]:
            values = metrics[m["name"]]
            s = spread(values)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"{w:22s} {m['name']:14s} {statistics.median(values):14.6g} "
                  f"{s:8.4f} {m['bound'] / 3:8.4f}{'' if ok else '  UNSTEADY'}")
    return steady


def compare(bench, first, second):
    agree = True
    for w in first:
        for m in bench["end_to_end"]:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = worsening(a, b, m["better"])
            ok = worse <= m["bound"]
            agree &= ok
            print(f"{w:22s} {m['name']:14s} {a:14.6g} {b:14.6g} "
                  f"{worse:+8.4f}{'' if ok else '  WORSE THAN BOUND'}")
    return agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="also write the samples here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)

    workloads = [w["name"] for w in bench["workloads"]]
    samples = collect(bench, workloads, parse_seeds(args.seeds),
                      bench["run_seconds"])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(samples, f, indent=1)
    sys.exit(0 if report(bench, samples) else 1)


if __name__ == "__main__":
    main()
