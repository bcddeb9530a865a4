#!/usr/bin/env python3
"""Builds and runs bench_e2e, the repository's end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 bench/e2e/run.py --workload navigate-arxiv --seed 7 \
        --seconds 16 --trace 0

builds bench_e2e into .bench_build/ on first use (a Release build of
bench/e2e/CMakeLists.txt, which compiles the library from src/), runs it
with every GNAV_* variable removed from its environment, and prints a
detail line followed by the result line:

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 812.4, "unit": "ms"}, ...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs with obs tracing
on, loads the Chrome trace bench_e2e wrote (strict json.load), computes
count, total and self time per span category and name, and reports the
per-layer metrics. --record FILE appends the full record of the run (all
quartiles, the host block, the trace table) as one JSON line.

Sets of runs for a baseline or a comparison:

    python3 bench/e2e/run.py --sweep --seeds 1-10 --record runs.jsonl

runs every workload once per seed (trace 0), in workload-major order.
bench/e2e/compare.py summarizes and compares such files.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["navigate-arxiv", "navigate-sweep", "train-products-async",
             "train-reddit2-lru", "serve-mixed"]
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    binary = os.path.join(BUILD_DIR, "bench_e2e")
    if not os.path.exists(binary):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return binary


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def span_key(cat, name):
    """Groups per-instance span names: run:pyg -> run:*, epoch-3 ->
    epoch-*, job-12 tenant-1 -> job-*."""
    if ":" in name:
        name = name.split(":", 1)[0] + ":*"
    return cat + "/" + re.sub(r"-\d.*$", "-*", name)


def trace_table(path):
    """Count, total and self seconds per span category/name. Self time is
    a span's duration minus the part its direct children cover; spans
    nest per thread (tid)."""
    with open(path) as f:
        trace = json.load(f)
    by_tid = defaultdict(list)
    for e in trace["traceEvents"]:
        if e.get("ph") == "X":
            start = float(e["ts"])
            by_tid[e["tid"]].append(
                (start, start + float(e["dur"]), e["cat"], e["name"]))
    table = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, covered_us, key, dur]

        def close(entry):
            row = table[entry[2]]
            row["self_s"] += max(entry[3] - entry[1], 0.0) / 1e6

        for start, end, cat, name in spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][1] += min(end, stack[-1][0]) - start
            key = span_key(cat, name)
            row = table[key]
            row["count"] += 1
            row["total_s"] += (end - start) / 1e6
            stack.append([end, 0.0, key, end - start])
        while stack:
            close(stack.pop())
    return dict(sorted(table.items()))


def layer_self_s(table):
    """Self seconds per layer: a "bench" span belongs to the layer its
    name starts with, a library span to its category."""
    layers = defaultdict(float)
    for key, row in table.items():
        cat, name = key.split("/", 1)
        layer = name.split(".", 1)[0] if cat == "bench" else cat
        layers[layer] += row["self_s"]
    return dict(sorted(layers.items()))


def run_once(binary, workload, seed, seconds, trace, spec):
    trace_path = os.path.join(BUILD_DIR, "traces",
                              "%s-%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GNAV_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_path, "--commit", commit()]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bench_e2e printed nothing (exit %d)"
                           % proc.returncode)
    record = json.loads(lines[-1])
    record.update(seed=seed, trace=int(trace), exit_code=proc.returncode)
    metrics = record["metrics"]
    if trace:
        table = trace_table(trace_path)
        record["trace_table"] = table
        record["layer_self_s"] = layer_self_s(table)
        runs = table.get("runtime/run:*")
        metrics["runtime.run_overhead_ms"] = {
            "value": 1e3 * runs["self_s"] / runs["count"] if runs else 0.0,
            "unit": "ms"}
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("bench_e2e did not report " + ", ".join(missing))
    result = {
        "correct": bool(record["correct"]) and all(
            isinstance(metrics[m["name"]]["value"], (int, float))
            for m in wanted),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    return record, result, proc.returncode


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the full run record here")
    ap.add_argument("--sweep", action="store_true",
                    help="run every workload once per --seeds seed")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    if not args.sweep and not args.workload:
        ap.error("--workload is required (or --sweep)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binary = build()

    jobs = ([(w, s) for w in WORKLOADS for s in parse_seeds(args.seeds)]
            if args.sweep else [(args.workload, args.seed)])
    exit_code = 0
    for workload, seed in jobs:
        record, result, code = run_once(binary, workload, seed, seconds,
                                        args.trace, spec)
        exit_code = exit_code or code
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        if args.sweep:
            log("%s seed %d: %s" % (workload, seed, json.dumps(result)))
        else:
            print(json.dumps({"detail": record}, sort_keys=True))
            print(json.dumps(result))
    return exit_code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py: error:", e)
        sys.exit(2)
