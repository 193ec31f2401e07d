#!/usr/bin/env python3
"""Condense google-benchmark JSON output into the committed perf baseline.

Usage:
  bench_to_json.py NATIVE.json [--merge NAME=RUN.json ...] [-o BENCH_kernels.json]
  bench_to_json.py NATIVE.json [--merge NAME=RUN.json ...] --compare BENCH_kernels.json

NATIVE.json is a --benchmark_out=json run of microbench_kernels.  Its
row-kernel benchmarks carry a `simd` axis (0 = the scalar tier, 1 = the
dispatched one, both in the same process), and the output records the
simd:0 / simd:1 time of each pair as a speedup, so regressions are a
single number to eyeball.  The output strips volatile context (dates, load
average, paths) so diffs against the committed baseline show perf drift,
not noise.

Typically invoked via the `bench_baseline` CMake target, which writes
BENCH_kernels.json at the repo root.

With --compare the tool checks a fresh run against the committed baseline
instead of writing one: it prints a per-benchmark delta table (new vs
baseline real_time_ns, matched by name within each run) and exits nonzero
when any benchmark regresses by more than --threshold percent (default
25) or when any baseline benchmark is missing from the fresh run.  CI
runs this as a non-blocking step; locally it answers "did my change slow
the kernels down?" in one command.

Extra benchmark binaries ride along via repeatable --merge NAME=RUN.json
options: each run is condensed into its own `runs.NAME` section of the
baseline (bench_baseline passes trace_replay=bench_trace_replay.json for
the ext_trace_replay suite), and with --compare each is checked against
the matching baseline section — a section the committed baseline does not
have yet is reported and skipped, so introducing a new suite does not fail
CI before its first baseline refresh.

A benchmark run with repetitions is committed as one row, its median,
named by its run name (e.g. BM_ChunkedDecode/10/min_time:0.500/repeats:5);
its other aggregates and its single repetitions are dropped.

Baselines are only written from release builds of the benchmark binary
(the binary self-reports via the fairshare_build_type context);
--allow-debug overrides for local experiments.
"""

import argparse
import json
import sys


def load_run(path):
    with open(path) as fh:
        return json.load(fh)


def condense_entries(doc):
    out = []
    for b in doc.get("benchmarks", []):
        # A repeated benchmark is committed as its median, under its run
        # name; its other aggregates and single repetitions are dropped.
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            name = b["run_name"]
        elif b.get("repetitions", 1) > 1:
            continue
        else:
            name = b["name"]
        entry = {
            "name": name,
            "iterations": b.get("iterations"),
            "real_time_ns": round(to_ns(b.get("real_time", 0.0),
                                        b.get("time_unit", "ns")), 1),
        }
        if "bytes_per_second" in b:
            entry["bytes_per_second"] = round(b["bytes_per_second"], 1)
        if b.get("label"):
            entry["kernel"] = b["label"]
        # Selected user counters worth committing: problem size (k), the
        # chunked-decode suite's class count / messages consumed / reception
        # overhead (the last is an acceptance number in its own right), and
        # the federation suite's scale axes — server count, session pool,
        # sessions per core, and the DHT resolve hop count.
        for counter in ("k", "classes", "consumed", "overhead_pct",
                        "servers", "sessions", "sessions_per_core",
                        "resolve_hops", "downloads_failed"):
            if counter in b:
                entry[counter] = round(b[counter], 3)
        if b.get("error_occurred"):
            entry["error"] = b.get("error_message", "unknown")
        out.append(entry)
    out.sort(key=lambda e: e["name"])
    return out


def to_ns(value, unit):
    return value * {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)


def host_context(doc):
    ctx = doc.get("context", {})
    # `fairshare_build_type` is the benchmark binary's own optimisation
    # state (AddCustomContext in microbench_kernels.cpp);
    # `library_build_type` only describes how libbenchmark was compiled
    # (Debian ships a debug one) and is kept as a fallback for old runs.
    return {
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        "build_type": ctx.get("fairshare_build_type",
                              ctx.get("library_build_type")),
    }


def by_name(entries):
    return {e["name"]: e for e in entries}


def speedups(native):
    """Dispatched-over-scalar ratios of each simd:1 / simd:0 pair."""
    out = {}
    native_by = by_name(native)
    for name, entry in sorted(native_by.items()):
        if "/simd:1" in name:
            base = native_by.get(name.replace("/simd:1", "/simd:0"))
            if base and entry["real_time_ns"] > 0:
                out[name] = round(base["real_time_ns"] / entry["real_time_ns"], 2)
    return out


def compare_runs(run_name, fresh, baseline_entries, threshold_pct):
    """Print per-benchmark deltas of `fresh` against the baseline run and
    return (regressed, missing): names beyond the threshold and baseline
    names absent from the fresh run."""
    regressed = []
    base_by = by_name(baseline_entries)
    print("%-44s %14s %14s %9s" % (run_name, "baseline_ns", "current_ns",
                                   "delta"))
    for entry in fresh:
        base = base_by.get(entry["name"])
        if base is None or not base.get("real_time_ns"):
            print("%-44s %14s %14.1f %9s"
                  % (entry["name"], "-", entry["real_time_ns"], "new"))
            continue
        delta_pct = (entry["real_time_ns"] / base["real_time_ns"] - 1.0) * 100
        flag = ""
        if delta_pct > threshold_pct:
            flag = "  << REGRESSION"
            regressed.append(entry["name"])
        print("%-44s %14.1f %14.1f %+8.1f%%%s"
              % (entry["name"], base["real_time_ns"], entry["real_time_ns"],
                 delta_pct, flag))
    missing = sorted(set(base_by) - {e["name"] for e in fresh})
    for name in missing:
        print("%-44s %14.1f %14s %9s"
              % (name, base_by[name]["real_time_ns"], "-", "missing"))
    return regressed, missing


def run_compare(args, native, merged):
    baseline = load_run(args.compare)
    runs = baseline.get("runs", {})
    if not runs.get("native"):
        sys.exit("no runs.native entries in baseline " + args.compare)
    regressed, missing = compare_runs("native", native, runs["native"],
                                      args.threshold)
    for name, entries in merged.items():
        print()
        if not runs.get(name):
            # First run of a new suite: nothing committed to compare with.
            print("note: baseline %s has no runs.%s section — skipping "
                  "(refresh the baseline to start gating it)"
                  % (args.compare, name))
            continue
        threshold = args.section_thresholds.get(name, args.threshold)
        more_regressed, more_missing = compare_runs(
            name, entries, runs[name], threshold)
        regressed += more_regressed
        missing += more_missing
    print()
    # A baseline benchmark that the fresh run never produced is a failure,
    # not a footnote: a renamed or silently-dropped benchmark would
    # otherwise make the regression gate vacuously green.
    failed = False
    if regressed:
        print("FAIL: %d benchmark(s) regressed past their threshold vs %s:"
              % (len(regressed), args.compare))
        for name in regressed:
            print("  " + name)
        failed = True
    if missing:
        print("FAIL: %d baseline benchmark(s) missing from this run "
              "(renamed? filtered out?):" % len(missing))
        for name in missing:
            print("  " + name)
        failed = True
    if failed:
        sys.exit(1)
    print("OK: no benchmark regressed past its threshold (default %.0f%%) "
          "vs %s" % (args.threshold, args.compare))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("native", help="benchmark JSON from microbench_kernels")
    ap.add_argument("--merge", action="append", default=[],
                    metavar="NAME=RUN.json",
                    help="condense an extra benchmark run into runs.NAME "
                    "(repeatable); with --compare, check it against the "
                    "baseline's runs.NAME section")
    ap.add_argument("-o", "--output", default="BENCH_kernels.json")
    ap.add_argument("--compare", metavar="BASELINE.json",
                    help="compare against a committed baseline instead of "
                    "writing one; exit nonzero on regression")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="regression threshold in percent for --compare "
                    "(default: %(default)s)")
    ap.add_argument("--section-threshold", action="append", default=[],
                    metavar="NAME=PCT",
                    help="override --threshold for one merged runs.NAME "
                    "section (repeatable); single-iteration end-to-end "
                    "suites are noisier than the kernel microbenches and "
                    "warrant a looser gate")
    ap.add_argument("--allow-debug", action="store_true",
                    help="write a baseline even from a non-release build "
                    "(normally refused: debug timings are meaningless as a "
                    "committed reference)")
    args = ap.parse_args()

    args.section_thresholds = {}
    for spec in args.section_threshold:
        name, sep, pct = spec.partition("=")
        if not sep or not name:
            sys.exit("--section-threshold expects NAME=PCT, got %r" % spec)
        try:
            args.section_thresholds[name] = float(pct)
        except ValueError:
            sys.exit("--section-threshold expects a numeric PCT, got %r"
                     % spec)

    native_doc = load_run(args.native)
    native = condense_entries(native_doc)
    if not native:
        sys.exit("no benchmark entries in " + args.native)

    merged = {}
    for spec in args.merge:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            sys.exit("--merge expects NAME=RUN.json, got %r" % spec)
        if name == "native" or name in merged:
            sys.exit("--merge run name %r collides with an existing run"
                     % name)
        entries = condense_entries(load_run(path))
        if not entries:
            sys.exit("no benchmark entries in " + path)
        merged[name] = entries

    if args.compare:
        run_compare(args, native, merged)
        return

    host = host_context(native_doc)
    if host.get("build_type") != "release" and not args.allow_debug:
        sys.exit("refusing to write a baseline from a %r build of the "
                 "benchmark binary — rebuild with CMAKE_BUILD_TYPE=Release "
                 "(or pass --allow-debug to override)"
                 % host.get("build_type"))

    baseline = {
        "schema": 1,
        "generated_by": "tools/bench_to_json.py (cmake --build build --target bench_baseline)",
        "host": host,
        "speedup_simd_over_scalar": speedups(native),
        "runs": {"native": native},
    }
    baseline["runs"].update(merged)

    with open(args.output, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print("wrote %s (%d native entries, %d merged runs)"
          % (args.output, len(native), len(merged)))


if __name__ == "__main__":
    main()
