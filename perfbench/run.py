#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold_fig13 --seed 1 --seconds 10 \
        --trace 0

--workload all runs every workload of BENCHMARK.json in turn, each in its
own process, and exits non-zero if any of them failed.  The first run
configures and builds perfbench/ (with the library sources in src/) into
.bench_build/perfbench; later runs rebuild only what changed.
Build output goes to stderr.  The benchmark prints its record line and, as
the last line of stdout, the result line (see perfbench/README.md).  With
--trace 1 the kept spans are written to
.bench_build/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the perfbench target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def commit_id():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    commit = commit_id()
    worst = 0
    for workload in workloads:
        command = [BINARY, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--commit", commit]
        if args.trace == "1":
            spans = os.path.join(ROOT, ".bench_build", "spans")
            os.makedirs(spans, exist_ok=True)
            command += ["--spans", os.path.join(
                spans, "%s-seed%d.jsonl" % (workload, args.seed))]
        sys.stdout.flush()
        done = subprocess.run(command, cwd=ROOT, check=False)
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
