#!/usr/bin/env python3
"""Golden-file checker for the deterministic bench JSON outputs.

The fig* benchmarks drive a simulated disk, so every I/O count (reads,
seek pages, buffer hits, ...) is reproducible across runs and machines.
Every mode below except cache and recluster reads a bench --json capture
through one projection, which keeps of each run:

  * its label and the keys runs are matched on (clustering, scheduler,
    num_complex_objects, mode);
  * every integer under disk, buffer, assembly and attributed;
  * refetched_pages and rows;
  * the seek-distance histogram's non-empty buckets (lo, count) and max.

It drops the rest: floats derived from those integers (avg_seek,
hit_rate, histogram quantiles, ...), timings and bench settings.  A golden
is the projection of a capture, one run per line, so a moved count reads
as a one-line diff.
Projecting a golden returns it unchanged, so every mode accepts a golden
or a capture wherever it reads one.

Usage:
  bench_golden.py extract <run.json> <golden.json>
      Write the projection of a capture as a golden.  Regenerate a golden
      only when a change legitimately moves a pinned count, and name the
      count and the reason in the change description.
  bench_golden.py check <golden.json> <run.json>
      Match runs by label and compare their projections; exit 1 naming
      every differing run and field path, and every run present on one
      side only.
  bench_golden.py crosscheck <reference.json> <run.json>
      Compare the I/O of runs that describe the same configuration in two
      different benches.  Runs are matched by (clustering, scheduler,
      num_complex_objects), skipping runs whose mode is not "merged" (the
      multi-client "independent" baseline); for each pair the disk,
      buffer and assembly counts, the seek histogram and refetched_pages
      must be identical.  Pins bench/multi_client.cc --clients 1 to the
      fig13 single-client numbers: same workload, different machinery
      (query service + async disk + sharded pool vs. the direct
      single-threaded path).
  bench_golden.py iobatch <seed.json> <iobatch.json>
      Assert the vectored-I/O win: over the inter-object-clustered elevator
      runs of a fig13 capture, the --io-batch run must issue at least 30%
      fewer disk read calls than the single-page seed and must not travel
      more total seek pages.  (Non-elevator and non-inter-object runs are
      excluded: position-blind schedulers pop single-ref runs, so coalescing
      never engages for them.)
  bench_golden.py spindles <seed.json> <array.json>
      Assert the disk-array win: for every configuration shared between a
      single-spindle capture and a --spindles N capture, the array run must
      issue exactly as many disk reads (striping relocates pages, it never
      adds I/O) with per-run non-increasing read seek pages, and the
      aggregate seek pages across matched runs must be strictly lower.
      Also verifies conservation on the array capture itself: each run's
      per-spindle "spindles" blocks must sum exactly to its disk stats.
  bench_golden.py recluster <trajectory.json>
      Assert online re-clustering convergence over a
      bench/recluster_convergence capture: the final epoch's read seek
      pages must land within 1.3x of the clustered reference and strictly
      below the unclustered starting point; the back half of the
      trajectory must be monotone-ish (each epoch <= 1.10x its
      predecessor — early epochs may transiently regress while a
      rate-limited prefix of the plan scrambles the unmoved region);
      every epoch must deliver identical rows (moves never lose or
      duplicate objects); and mid-move assembly throughput must stay
      >= 0.8x of epoch 0 (CPU-time rows/sec, so the floor is machine-load
      immune).
  bench_golden.py cache <zipf.json>
      Assert the assembled-object-cache win over a bench/cache_zipf capture:
      every cached run must deliver exactly the rows of the off baseline
      (the Zipf streams are seed-pinned, so a row-count drift means lost or
      duplicated objects), reach a >= 80% hit rate, run >= 3x the off rows/
      sec, and issue fewer disk reads than off.  Floors rather than exact
      diffs: rows/sec is wall-clock, and hit counts shift by a few requests
      with thread interleaving.
"""

import json
import sys

MATCH_KEYS = ("clustering", "scheduler", "num_complex_objects", "mode")
COUNT_SECTIONS = ("disk", "buffer", "assembly", "attributed")
COUNTS = ("refetched_pages", "rows")
# Ratios of pinned counts.  The bench JSON writes an integral double (a
# 0.0 hit rate) as 0, so these are dropped by name, not by type.
DERIVED = ("avg_seek_per_read", "avg_seek_per_write", "hit_rate")
CROSSCHECK_KEY = ("clustering", "scheduler", "num_complex_objects")
CROSSCHECK_FIELDS = ("disk", "buffer", "assembly", "seek_histogram",
                     "refetched_pages")
SPINDLE_FIELDS = ("reads", "read_seek_pages", "writes", "write_seek_pages")


def project(run):
    """The pinned part of one run (see the module docstring)."""
    out = {key: run[key] for key in ("label",) + MATCH_KEYS + COUNTS
           if key in run}
    for section in COUNT_SECTIONS:
        if section in run:
            out[section] = {key: value
                            for key, value in run[section].items()
                            if type(value) is int and key not in DERIVED}
    histogram = run.get("seek_histogram")
    if histogram is not None:
        out["seek_histogram"] = {
            "buckets": [{"lo": b["lo"], "count": b["count"]}
                        for b in histogram["buckets"]],
            "max": histogram["max"],
        }
    return out


def read_runs(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f).get("runs", [])


def load_runs(path):
    return [project(run) for run in read_runs(path)]


def format_golden(runs):
    lines = ",\n".join(json.dumps(run) for run in runs)
    return '{"runs": [\n' + lines + "\n]}\n"


def field_paths(node, prefix=""):
    """Flattens a projected run into {field path: leaf value}."""
    if isinstance(node, dict):
        paths = {}
        for key, value in node.items():
            paths.update(field_paths(value, f"{prefix}.{key}" if prefix
                                     else key))
        return paths
    if isinstance(node, list):
        paths = {}
        for i, item in enumerate(node):
            paths.update(field_paths(item, f"{prefix}[{i}]"))
        return paths
    return {prefix: node}


def differences(expected, actual):
    """(field path, expected, actual) for every leaf that differs."""
    left, right = field_paths(expected), field_paths(actual)
    return [(path, left.get(path), right.get(path))
            for path in sorted(left.keys() | right.keys())
            if left.get(path) != right.get(path)]


def shown(value):
    return "absent" if value is None else value


def by_label(runs, path):
    labeled = {}
    for run in runs:
        if run["label"] in labeled:
            sys.exit(f"{path}: duplicate run label {run['label']!r}")
        labeled[run["label"]] = run
    return labeled


def check(golden_path, run_path):
    golden = by_label(load_runs(golden_path), golden_path)
    actual = by_label(load_runs(run_path), run_path)
    problems = []
    for label in sorted(golden.keys() | actual.keys()):
        if label not in actual:
            problems.append(f"run {label!r}: missing from {run_path}")
        elif label not in golden:
            problems.append(f"run {label!r}: not in golden {golden_path}")
        else:
            for path, want, got in differences(golden[label], actual[label]):
                problems.append(f"run {label!r}: {path} {shown(want)} -> "
                                f"{shown(got)}")
    if not problems:
        print(f"OK: {len(golden)} run(s) of {run_path} match {golden_path}")
        return 0
    sys.stderr.write(f"MISMATCH: {run_path} differs from golden "
                     f"{golden_path}\n")
    sys.stderr.writelines(f"  {problem}\n" for problem in problems)
    return 1


def runs_by_config(path):
    runs = {}
    for run in load_runs(path):
        if all(field in run for field in CROSSCHECK_KEY):
            # A bench never repeats a configuration except as an explicitly
            # differently-moded run (the multi-client "independent"
            # baseline); skip those.
            if run.get("mode", "merged") != "merged":
                continue
            runs.setdefault(tuple(run[f] for f in CROSSCHECK_KEY), run)
    return runs


def crosscheck(reference_path, run_path):
    reference = runs_by_config(reference_path)
    actual = runs_by_config(run_path)
    matched = 0
    failures = 0
    for key, run in sorted(actual.items()):
        if key not in reference:
            continue
        matched += 1
        expected = {f: reference[key].get(f) for f in CROSSCHECK_FIELDS}
        got = {f: run.get(f) for f in CROSSCHECK_FIELDS}
        for path, want, have in differences(expected, got):
            failures += 1
            sys.stderr.write(f"CROSSCHECK MISMATCH {key} {path}: "
                             f"{reference_path} {shown(want)}, "
                             f"{run_path} {shown(have)}\n")
    if matched == 0:
        sys.stderr.write(
            f"CROSSCHECK: no overlapping configurations between "
            f"{reference_path} and {run_path}\n"
        )
        return 1
    if failures:
        sys.stderr.write(
            f"CROSSCHECK: {failures} field mismatch(es) across "
            f"{matched} matched configuration(s)\n"
        )
        return 1
    print(f"OK: {matched} configuration(s) of {run_path} match "
          f"{reference_path}")
    return 0


def iobatch_totals(path):
    """Total (reads, seek pages) over the inter-object elevator runs."""
    reads = seeks = matched = 0
    for run in load_runs(path):
        if (run.get("clustering") == "inter-object"
                and run.get("scheduler") == "elevator"):
            reads += run["disk"]["reads"]
            seeks += run["disk"]["read_seek_pages"]
            matched += 1
    return reads, seeks, matched


def iobatch(seed_path, batched_path):
    seed_reads, seed_seeks, seed_n = iobatch_totals(seed_path)
    run_reads, run_seeks, run_n = iobatch_totals(batched_path)
    if seed_n == 0 or run_n == 0:
        sys.stderr.write(
            f"IOBATCH: no inter-object elevator runs found "
            f"({seed_path}: {seed_n}, {batched_path}: {run_n})\n"
        )
        return 1
    drop = 1.0 - run_reads / seed_reads
    print(
        f"iobatch: reads {seed_reads} -> {run_reads} ({drop:.1%} drop), "
        f"seek pages {seed_seeks} -> {run_seeks}"
    )
    failed = 0
    if drop < 0.30:
        sys.stderr.write(
            f"IOBATCH: read-call drop {drop:.1%} is below the 30% floor\n"
        )
        failed = 1
    if run_seeks > seed_seeks:
        sys.stderr.write(
            f"IOBATCH: total seek pages increased "
            f"({seed_seeks} -> {run_seeks})\n"
        )
        failed = 1
    return failed


def spindles(seed_path, array_path):
    seed = runs_by_config(seed_path)
    array = runs_by_config(array_path)
    matched = failures = 0
    seed_seeks_total = array_seeks_total = 0
    for key, run in sorted(array.items()):
        if key not in seed:
            continue
        matched += 1
        ref_disk = seed[key]["disk"]
        run_disk = run["disk"]
        if run_disk["reads"] != ref_disk["reads"]:
            failures += 1
            sys.stderr.write(
                f"SPINDLES {key}: read count changed "
                f"({ref_disk['reads']} -> {run_disk['reads']}); striping "
                f"must never add or remove I/O\n"
            )
        if run_disk["read_seek_pages"] > ref_disk["read_seek_pages"]:
            failures += 1
            sys.stderr.write(
                f"SPINDLES {key}: read seek pages increased "
                f"({ref_disk['read_seek_pages']} -> "
                f"{run_disk['read_seek_pages']})\n"
            )
        seed_seeks_total += ref_disk["read_seek_pages"]
        array_seeks_total += run_disk["read_seek_pages"]
    # Conservation is a property of the capture itself, so it reads the
    # per-spindle blocks the projection leaves out.
    for run in read_runs(array_path):
        per_spindle = run.get("spindles", [])
        for field in SPINDLE_FIELDS:
            total = sum(s[field] for s in per_spindle)
            if per_spindle and total != run["disk"][field]:
                failures += 1
                sys.stderr.write(
                    f"SPINDLES {run['label']!r}: per-spindle '{field}' sums "
                    f"to {total}, global says {run['disk'][field]}\n"
                )
    if matched == 0:
        sys.stderr.write(
            f"SPINDLES: no overlapping configurations between "
            f"{seed_path} and {array_path}\n"
        )
        return 1
    print(
        f"spindles: {matched} configuration(s), seek pages "
        f"{seed_seeks_total} -> {array_seeks_total}"
    )
    if array_seeks_total >= seed_seeks_total:
        sys.stderr.write(
            f"SPINDLES: aggregate seek pages did not drop "
            f"({seed_seeks_total} -> {array_seeks_total})\n"
        )
        failures += 1
    return 1 if failures else 0


def cache(zipf_path, hit_floor=0.80, speedup_floor=3.0):
    with open(zipf_path, "r", encoding="utf-8") as f:
        data = json.load(f)
    runs = data.get("runs", [])
    off = next((r for r in runs if r.get("policy") == "off"), None)
    cached = [r for r in runs if r.get("policy") != "off"]
    if off is None or not cached:
        sys.stderr.write(
            f"CACHE: {zipf_path} needs an 'off' baseline and at least one "
            f"cached run\n"
        )
        return 1
    failures = 0
    for run in cached:
        policy = run.get("policy", "?")
        if run.get("rows") != off.get("rows"):
            failures += 1
            sys.stderr.write(
                f"CACHE {policy}: delivered {run.get('rows')} rows, off "
                f"baseline delivered {off.get('rows')} — the cache lost or "
                f"duplicated objects\n"
            )
        hit_rate = run.get("hit_rate", 0.0)
        if hit_rate < hit_floor:
            failures += 1
            sys.stderr.write(
                f"CACHE {policy}: hit rate {hit_rate:.3f} below the "
                f"{hit_floor:.0%} floor\n"
            )
        speedup = run.get("speedup_vs_off", 0.0)
        if speedup < speedup_floor:
            failures += 1
            sys.stderr.write(
                f"CACHE {policy}: {speedup:.2f}x rows/sec vs off, floor is "
                f"{speedup_floor:.1f}x\n"
            )
        if run.get("disk_reads", 0) >= off.get("disk_reads", 0):
            failures += 1
            sys.stderr.write(
                f"CACHE {policy}: disk reads did not drop "
                f"({off.get('disk_reads')} -> {run.get('disk_reads')})\n"
            )
        print(
            f"cache {policy}: hit rate {hit_rate:.3f}, {speedup:.2f}x "
            f"rows/sec, disk reads {off.get('disk_reads')} -> "
            f"{run.get('disk_reads')}"
        )
    return 1 if failures else 0


def recluster(trajectory_path, ref_ratio=1.3, regress_ratio=1.10,
              throughput_floor=0.8):
    with open(trajectory_path, "r", encoding="utf-8") as f:
        data = json.load(f)
    ref = data.get("clustered_ref")
    epochs = sorted(
        (r for r in data.get("runs", []) if "epoch" in r),
        key=lambda r: r["epoch"],
    )
    if ref is None or len(epochs) < 2:
        sys.stderr.write(
            f"RECLUSTER: {trajectory_path} needs a clustered_ref and at "
            f"least two epochs (found {len(epochs)}) — was the bench run "
            f"with --recluster off?\n"
        )
        return 1
    seeks = [r["disk"]["read_seek_pages"] for r in epochs]
    print(
        f"recluster: seek pages {seeks[0]} -> {seeks[-1]} over "
        f"{len(epochs)} epochs (clustered ref {ref['read_seek_pages']})"
    )
    failures = 0
    bound = ref_ratio * ref["read_seek_pages"]
    if seeks[-1] > bound:
        failures += 1
        sys.stderr.write(
            f"RECLUSTER: final epoch travels {seeks[-1]} seek pages, above "
            f"{ref_ratio}x the clustered reference ({bound:.0f})\n"
        )
    if seeks[-1] >= seeks[0]:
        failures += 1
        sys.stderr.write(
            f"RECLUSTER: no net improvement ({seeks[0]} -> {seeks[-1]})\n"
        )
    for i in range(len(epochs) // 2, len(epochs) - 1):
        if seeks[i + 1] > regress_ratio * seeks[i]:
            failures += 1
            sys.stderr.write(
                f"RECLUSTER: late-trajectory regression at epoch "
                f"{epochs[i + 1]['epoch']} ({seeks[i]} -> {seeks[i + 1]}, "
                f"allowed {regress_ratio}x)\n"
            )
    rows = {r.get("rows") for r in epochs}
    if len(rows) != 1:
        failures += 1
        sys.stderr.write(
            f"RECLUSTER: row counts drifted across epochs ({sorted(rows)}) "
            f"— the mover lost or duplicated objects\n"
        )
    baseline = epochs[0].get("rows_per_sec", 0.0)
    worst = min(r.get("rows_per_sec", 0.0) for r in epochs)
    if baseline > 0 and worst < throughput_floor * baseline:
        failures += 1
        sys.stderr.write(
            f"RECLUSTER: mid-move throughput fell to {worst:.0f} rows/sec, "
            f"below {throughput_floor}x of epoch 0 ({baseline:.0f})\n"
        )
    return 1 if failures else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "cache":
        return cache(argv[2])
    if len(argv) == 3 and argv[1] == "recluster":
        return recluster(argv[2])
    if len(argv) != 4 or argv[1] not in ("extract", "check", "crosscheck",
                                         "iobatch", "spindles"):
        sys.stderr.write(__doc__)
        return 2
    mode, a, b = argv[1], argv[2], argv[3]
    if mode == "extract":
        with open(b, "w", encoding="utf-8") as f:
            f.write(format_golden(load_runs(a)))
        print(f"wrote {b}")
        return 0
    if mode == "check":
        return check(a, b)
    if mode == "crosscheck":
        return crosscheck(a, b)
    if mode == "iobatch":
        return iobatch(a, b)
    return spindles(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
