#!/usr/bin/env python3
"""Build and run the vGPRS capacity benchmark.

    python3 capbench/run.py --workload callwave --seed 1 --seconds 10 --trace 0
    python3 capbench/run.py --self-test

Run from the root of a checkout.  The driver (capbench/capbench.cpp) and the
vGPRS library it links (src/) are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, then the driver runs the workload.
Its output is relayed; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones, and the spans of the
traced run are written to <build dir>/spans/.  Any build failure, crash,
timeout or malformed result exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("callwave", "regchurn", "callcycle_traced")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # configure + build together; a first build is ~1 min


def log(msg):
    print(f"[capbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr until the monotonic
    `deadline`; True on success."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic())) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    """Configures once, then builds incrementally; returns the driver path."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "capbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, deadline):
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target",
                      "capbench_driver", "-j", jobs], deadline):
        return None
    return os.path.join(build_dir, "capbench_driver")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def valid_result(line, trace):
    """The driver's last line must be the result object described in the
    module docstring, carrying exactly the metrics BENCHMARK.json declares
    for this mode."""
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                  "failed", "metrics"}:
        return False
    if not isinstance(res["correct"], bool):
        return False
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            return False
    if res["attempted"] < 1 or not 0 <= res["failed"] <= res["attempted"]:
        return False
    metrics = res["metrics"]
    want = declared_metrics(trace)
    if not isinstance(metrics, dict) or set(metrics) != set(want):
        log(f"metric set differs from BENCHMARK.json: {sorted(metrics)}")
        return False
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return False
        if m["unit"] != want[name] or not isinstance(m["value"], (int, float)):
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at tiny size and check that a "
                         "corrupted expected digest fails")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")

    driver = build()
    if driver is None:
        log("build failed")
        return 1

    if args.self_test:
        cmd = [driver, "--self-test"]
    else:
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans_dir = os.path.join(os.path.dirname(driver), "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans-out", os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").split("\n") if out else []
    if args.self_test:
        print("\n".join(lines))
        return 0 if proc.returncode == 0 else 1
    if proc.returncode != 0 or not lines or not valid_result(lines[-1],
                                                             args.trace):
        print("\n".join(lines), file=sys.stderr)
        log(f"driver failed (exit {proc.returncode}) or printed no valid "
            "result")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
