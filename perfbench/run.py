#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
benchmark binary under an address-space cap, checks the workload's model
fingerprint against perfbench/reference.json, and prints every metric by
name with its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. The exit code is 0 only when the run was
correct. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6_rpc_small", "fig5_alltoall", "chaos_matrix")
# Address-space cap for the benchmark binary: a runaway workload fails as a
# counted failure with its peak RSS instead of taking the machine's memory.
MEMORY_CAP_BYTES = 4 << 30
# The binary stops starting units after --seconds and then finishes the one
# it is in: up to about 10 s for a traced fig5_alltoall pair. A run that
# overshoots by more than this margin is hung and is killed.
RUN_TIMEOUT_MARGIN_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "vnet_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "vnet_perfbench")


def cap_memory():
    cap = (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, cap)


def run_binary(binary, args, timeout_s):
    """Runs the binary; returns (exit status, stdout text, peak RSS in MB).

    The child is reaped with wait4() so that its own peak RSS is read, not
    the maximum over every child (the compiler included)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            preexec_fn=cap_memory, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    if binary is None:
        return 1
    trace_dir = os.path.join(build_dir(), "trace")
    os.makedirs(trace_dir, exist_ok=True)
    status, out, rss_mb = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", trace_dir], args.seconds + RUN_TIMEOUT_MARGIN_S)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if status == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        # Crashed, killed or hit the memory cap: one counted failure.
        log("perfbench: %s exited with status %s" % (binary, status))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {"peak_rss_mb": {"value": rss_mb,
                                                      "unit": "MB"}}}))
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = result["consistent"]
    expected = reference["fingerprints"][args.workload].get(str(args.seed))
    if expected is not None and expected != result["fingerprint"]:
        log("perfbench: model fingerprint %s differs from the reference %s "
            "for seed %d" % (result["fingerprint"], expected, args.seed))
        correct, failed = False, attempted
    correct = correct and failed == 0 and attempted > 0

    metrics = dict(result["metrics"])
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    for name, m in sorted(metrics.items()):
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    selected = {}
    for spec in wanted:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"]:
            raise SystemExit("perfbench: %s is in %s, BENCHMARK.json says %s"
                             % (spec["name"], m["unit"], spec["unit"]))
        selected[spec["name"]] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
