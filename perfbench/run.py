#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload svc-zipf --seed 7 --seconds 20 --trace 0

Builds the `perfbench` binary from source (perfbench/CMakeLists.txt over
../src, Release) into $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, runs one workload, gives the result line's metrics the order
and units of BENCHMARK.json and prints it as the last line of stdout.
--trace 1 runs the traced variant, prints the per-layer metrics (those the
workload does not drive read 0 and are named on a `not_exercised` line) and
writes a Chrome trace to <build dir>/traces/.

Exit codes: 0 ok, 1 the workload's correctness oracle failed, 2 bad usage
or sources missing, 3 build failed or the run timed out, 4 the run printed
no valid result.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
BUILD_JOBS = "3"


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (make and compiler children included) is killed and reaped."""
    with subprocess.Popen(cmd, process_group=0, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return proc.returncode, out


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(2, "BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "runtime sources (src/) not found; cannot build the benchmark")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr)
        except subprocess.TimeoutExpired:
            fail(3, "build timed out: " + " ".join(cmd))
        if code != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def shape_result(result, expected, fill_missing):
    """Checks the binary's result line and gives its metrics BENCHMARK.json's
    order and units. The binary reports only the metrics it measured, as
    name -> value; with `fill_missing` an unreported metric reads 0 and is
    listed in the second return value, else it is an error. Returns
    (error or None, names filled)."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics", []
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean", []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a non-negative integer", []
    if result["attempted"] < 1:
        return "attempted < 1", []
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in expected}
    if unknown:
        return "metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)), []
    metrics = {}
    missing = []
    for m in expected:
        if m["name"] not in measured and fill_missing:
            missing.append(m["name"])
        value = measured.get(m["name"], 0.0 if fill_missing else None)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            return "%s has no finite value" % m["name"], []
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    return None, missing


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload " + args.workload)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail(3, "run exceeded %d s" % RUN_TIMEOUT_S)

    lines = stdout.splitlines()
    if not lines:
        fail(4, "run printed nothing (exit %d)" % code)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(4, "last line is not JSON (exit %d)" % code)
    error, not_exercised = shape_result(result, expected, bool(args.trace))
    if error is not None:
        fail(4, error)
    if args.trace:
        # Layers this workload does not drive: reported as 0.
        print("perfbench.not_exercised " + json.dumps(not_exercised))
    if code not in (0, 1) or (code == 1) == result["correct"]:
        fail(4, "exit code %d disagrees with the result" % code)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
