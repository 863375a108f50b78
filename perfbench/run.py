#!/usr/bin/env python3
"""Build and run the pragmalist benchmark.

    python3 perfbench/run.py --workload list_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The benchmark binary is built from source
with CMake into $CARGO_TARGET_DIR (default .bench_build), then run once
per workload, each in a process of its own so that rss_peak_mb is that
workload's alone. Metrics go to stderr by name and unit; the last line
of stdout is the result object, whose metric names are checked against
BENCHMARK.json. A failed build, a failed check or a metric mismatch
exits non-zero without a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["list_mix", "list_retry", "wire_mix"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = [["cmake", "--build", build_dir, "-j", "4"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, build_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            trace_dir, "%s-seed%d.spans.csv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    if names != sorted(expected_metrics(trace)):
        fail("%s reported metrics %s, BENCHMARK.json lists others"
             % (workload, names))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(binary, build_dir, w, args.seed, args.seconds,
                          args.trace)
               for w in workloads}
    if args.workload == "all":
        for w, r in results.items():
            for name, m in r["metrics"].items():
                print("%-10s %-28s %16.4f %s" % (w, name, m["value"],
                                                 m["unit"]))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
