#!/usr/bin/env python3
"""End-to-end download benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the perfbench binary (a Release build of the fairshare sources in
.bench_build/perfbench), runs one workload, checks its outputs, and prints
as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from a traced run.  The
lines before it give the host context and the workload-specific figures
(see perfbench/README.md).  The raw document, spans included, is kept in
.bench_out/.  Exits nonzero when any output is wrong, a check is missing,
a span was dropped, or a metric cannot be computed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing but .bench_* in the checkout
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("small_fetch", "bulk_fetch", "paced_share")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "fetch_ms_p50": "ms",
    "goodput_MBps": "MB/s",
    "cpu_ms_per_MB": "ms/MB",
    "peak_rss_MB": "MB",
}

PER_LAYER = {
    "net.connect_auth_ms_p50": "ms",
    "net.first_frame_ms": "ms",
    "net.overfetch_ratio": "ratio",
    "net.stop_ms": "ms",
    "net.recv_ns_per_frame": "ns",
    "net.loop_busy_frac": "ratio",
    "net.loop_wakeups_per_MB": "1/MB",
    "p2p.wire_decode_ns_per_frame": "ns",
    "p2p.store_ns_per_msg": "ns",
    "coding.add_ns_per_msg": "ns",
    "coding.verify_ns_per_msg": "ns",
    "coding.decoder_wait_ns_per_msg": "ns",
    "coding.innovative_ratio": "ratio",
    "coding.reconstruct_ms": "ms",
    "coding.encode_ns_per_msg": "ns",
    "crypto.md5_ns_per_KB": "ns/KB",
    "linalg.eliminate_ns_per_msg": "ns",
    "linalg.eliminate_share": "ratio",
    "trace.span_coverage": "ratio",
}

# Figures of the report line that exist on some workloads only (the result
# line must carry the same metrics on every workload).
REPORT = {
    "ops_failed_frac": "ratio",
    "fetch_ms_p99.9": "ms",  # the highest tail with ten samples beyond it
    "fetch_ms_p99": "ms",
    "fetch_ms_p90": "ms",
    "publish_ms_p50": "ms",
    "disco.resolve_hops": "count",
    "share_ratio_min": "ratio",
    "paced_utilization": "ratio",
    "disco.resolve_ms_p50": "ms",
    "net.quantum_ns_p50": "ns",
    "alloc.granted_share_ratio_min": "ratio",
    "trace.overhead_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; its path, or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no fairshare sources next to perfbench/")
        return None
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:") and \
                line.split("=", 1)[1] != BUILD_TYPE:
            log(f"perfbench: refusing a {line.split('=', 1)[1]} build "
                f"in {BUILD_DIR}")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return BUILD_DIR / "perfbench"


def spans_of(result):
    return [dict(zip(("id", "parent", "op", "name", "start", "end"), s))
            for s in result.get("spans", [])]


def fetched_mb(window_ops):
    return sum(op["bytes"] for op in window_ops if op["kind"] == "fetch") / 1e6


def end_to_end(result, window_ops):
    return {
        "setup_s": stats.median(result["setup_s"]),
        "fetch_ms_p50": finite(stats.percentile(
            stats.latencies(window_ops, "fetch"), 0.5)),
        "goodput_MBps": stats.ratio(fetched_mb(window_ops),
                                    result["window_s"]),
        "cpu_ms_per_MB": stats.ratio(result["cpu_s"] * 1e3,
                                     fetched_mb(window_ops)),
        "peak_rss_MB": result["peak_rss_mb"],
    }


def per_layer(result, window_ops):
    traced = [op for op in window_ops if op["traced"]]
    spans = spans_of(result)
    layers = result["layers"]
    servers = result["servers"]
    mb = fetched_mb(window_ops)
    adds = layers["adds"]
    return {
        "net.connect_auth_ms_p50": stats.percentile(
            stats.durations_ms(spans, "net.connect_auth"), 0.5),
        "net.first_frame_ms": stats.mean(
            stats.durations_ms(spans, "net.first_frame")),
        "net.overfetch_ratio": stats.ratio(
            sum(op["frames"] for op in traced if op["kind"] == "fetch"),
            sum(op["k"] for op in traced if op["kind"] == "fetch")),
        "net.stop_ms": stats.mean(stats.durations_ms(spans, "net.stop")),
        "net.recv_ns_per_frame": stats.ratio(layers["recv_ns"],
                                             layers["frames"]),
        "net.loop_busy_frac": stats.ratio(
            servers["loop_busy_ns"],
            servers["loop_busy_ns"] + servers["loop_wait_ns"]),
        "net.loop_wakeups_per_MB": stats.ratio(servers["loop_wakeups"], mb),
        "p2p.wire_decode_ns_per_frame": stats.ratio(layers["wire_decode_ns"],
                                                    layers["frames"]),
        "p2p.store_ns_per_msg": stats.ratio(layers["store_ns"],
                                            layers["stored"]),
        "coding.add_ns_per_msg": stats.ratio(layers["add_ns"], adds),
        "coding.verify_ns_per_msg": stats.ratio(
            layers["add_ns"] - result["eliminate_ns"], adds),
        "coding.decoder_wait_ns_per_msg": stats.ratio(
            layers["decoder_wait_ns"], adds),
        "coding.innovative_ratio": stats.ratio(layers["accepted"], adds),
        "coding.reconstruct_ms": stats.mean(
            stats.durations_ms(spans, "coding.reconstruct")),
        "coding.encode_ns_per_msg": stats.ratio(layers["encode_ns"],
                                                layers["encoded"]),
        "crypto.md5_ns_per_KB": stats.ratio(layers["md5_ns"],
                                            layers["md5_bytes"] / 1024),
        "linalg.eliminate_ns_per_msg": stats.ratio(result["eliminate_ns"],
                                                   result["eliminations"]),
        "linalg.eliminate_share": stats.ratio(result["eliminate_ns"],
                                              layers["add_ns"]),
        "trace.span_coverage": stats.span_coverage(spans),
    }


def finite(value):
    """JSON has no infinity: a percentile that fell on a failed operation
    is reported as null."""
    return value if value is None or math.isfinite(value) else None


def workload_report(doc, window_ops):
    """The run's context and the figures that exist on some workloads
    only, each metric with its unit."""
    result = doc["result"]
    fetches = stats.latencies(window_ops, "fetch")
    metrics = {"ops_failed_frac": stats.ops_failed_frac(window_ops)}
    report = {
        "workload": result["workload"],
        "seed": doc["seed"],
        "trace": doc["trace"],
        "host": doc["host"],
        "fetches": len(fetches),
        "setup_passes_s": result["setup_s"],
    }
    tail = stats.tail_percentile(fetches)
    if tail:
        metrics[f"fetch_ms_p{tail[0] * 100:g}"] = finite(tail[1])
    publishes = stats.latencies(window_ops, "publish")
    if publishes:
        report["publishes"] = len(publishes)
        metrics["publish_ms_p50"] = finite(stats.percentile(publishes, 0.5))
    hops = [op["hops"] for op in window_ops if "hops" in op]
    if hops:
        metrics["disco.resolve_hops"] = stats.mean(hops)
    paced = result.get("paced")
    if paced:
        users = paced["users"]
        delivered = sum(u["bytes_end"] - u["bytes_start"] for u in users)
        metrics["share_ratio_min"] = stats.share_ratio_min(users)
        metrics["paced_utilization"] = stats.ratio(
            delivered, paced["rate_kbps"] * 1000 / 8 * paced["share_window_s"])

    if doc["trace"]:
        spans = spans_of(result)
        resolves = stats.durations_ms(spans, "disco.resolve")
        if resolves:
            metrics["disco.resolve_ms_p50"] = stats.percentile(resolves, 0.5)
        if paced:
            metrics["net.quantum_ns_p50"] = \
                result["servers"]["quantum_ns_p50"]
            metrics["alloc.granted_share_ratio_min"] = \
                stats.granted_share_ratio_min(paced["users"])
            report["granted_samples"] = paced["granted_samples"]
        traced = [op["ms"] for op in window_ops
                  if op["kind"] == "fetch" and op["ok"] and op["traced"]]
        untraced = [op["ms"] for op in window_ops
                    if op["kind"] == "fetch" and op["ok"] and not op["traced"]]
        t50 = stats.percentile(traced, 0.5)
        u50 = stats.percentile(untraced, 0.5)
        if t50 is not None and u50 is not None:
            metrics["trace.overhead_ms"] = t50 - u50
            report["trace.overhead_basis"] = "p50"
        elif traced and untraced:  # too few fetches for medians
            metrics["trace.overhead_ms"] = \
                stats.mean(traced) - stats.mean(untraced)
            report["trace.overhead_basis"] = "mean"
        report["trace.overhead_samples"] = [len(traced), len(untraced)]
        report["cross_check"] = result["cross_check"]
        report["spans"] = {"recorded": len(spans),
                           "dropped": result["spans_dropped"]}
        report["span_table"] = {
            name: {k: round(v, 3) for k, v in row.items()}
            for name, row in stats.span_table(spans).items()}
    report["metrics"] = {name: {"value": value, "unit": REPORT[name]}
                         for name, value in metrics.items()}
    return report


def correctness_problems(result, traced):
    """Why the run's outputs cannot be trusted; empty when they can."""
    problems = []
    if result["checks"]["mismatched"]:
        problems.append(f"{result['checks']['mismatched']} outputs differ "
                        "from their source")
    unchecked = sum(1 for op in result["ops"] if not op["checked"])
    if unchecked:
        problems.append(f"{unchecked} operations were never checked")
    if traced:
        if result["spans_dropped"]:
            problems.append(f"{result['spans_dropped']} spans dropped")
        if not result["cross_check"]["ok"]:
            problems.append("traced client disagrees with download_file")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--out", str(out)],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: binary exited with {proc.returncode}")
        return 1

    doc = json.loads(out.read_text())
    result = doc["result"]
    window_ops = result["ops"]
    problems = correctness_problems(result, bool(args.trace))
    if args.trace:
        metrics, units = per_layer(result, window_ops), PER_LAYER
    else:
        metrics, units = end_to_end(result, window_ops), END_TO_END

    print(json.dumps({"report": workload_report(doc, window_ops)}))
    missing = [name for name, value in metrics.items()
               if value is None or not math.isfinite(value)]
    if missing:
        log(f"perfbench: cannot compute {', '.join(missing)} "
            "(too few samples, or a percentile fell on a failed operation)")
        return 1
    for p in problems:
        log(f"perfbench: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(window_ops),
        "failed": sum(1 for op in window_ops if not op["ok"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
