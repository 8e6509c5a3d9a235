#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the root of the repository:

    python3 perfbench/spread.py --runs 10 --out set1.json
    python3 perfbench/spread.py --compare set1.json set2.json

For every workload in BENCHMARK.json (or --workloads a,b) it runs
perfbench/run.py untraced with seeds first-seed .. first-seed + runs - 1 and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles(values, n=4))
as a share of the median.  A spread above the metric's bound is marked.
--compare reads two saved sets and prints how far the second median lies
from the first, in the metric's "worse" direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(spec, workloads, runs, first_seed):
    values = {}
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in range(first_seed, first_seed + runs):
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, done.returncode, done.stderr[-2000:]))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: incorrect or failed operations" %
                         (workload, seed))
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(spec, values):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in values.items():
        print(workload)
        for name, vals in sorted(metrics.items()):
            s = spread(vals)
            over = s > bounds[name] and name != "setup_s"
            mark = " OVER BOUND" if over else ""
            print("  %-20s median %-14.6g spread %.4f bound %.2f%s" %
                  (name, statistics.median(vals), s, bounds[name], mark))


def compare(spec, first, second):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in first:
        print(workload)
        for name, vals in sorted(first[workload].items()):
            a = statistics.median(vals)
            b = statistics.median(second[workload][name])
            if metrics[name]["better"] == "lower":
                worse = (b - a) / a
            else:
                worse = (a - b) / a
            mark = " WORSE THAN BOUND" if worse > metrics[name]["bound"] else ""
            print("  %-20s %-14.6g -> %-14.6g worse by %+.4f bound %.2f%s" %
                  (name, a, b, worse, metrics[name]["bound"], mark))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(spec, *sets)
        return
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    values = run_set(spec, workloads, args.runs, args.first_seed)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    report(spec, values)


if __name__ == "__main__":
    main()
