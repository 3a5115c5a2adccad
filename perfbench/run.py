#!/usr/bin/env python3
"""Build and run the BitMoD model-scale benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark package (perfbench/,
which compiles the library from ../src) is configured and built with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset; then
the benchmark binary runs the workload.  Build output goes to stderr, so
the last line of stdout is the binary's JSON result.  With --trace 1
the spans are written to <build>/traces/<workload>-seed<N>.json.

Workloads: layer_pipeline, serve_capacity, design_sweep (see
perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_timeout_s(seconds):
    """Measurement plus set-up, replays and probes, with a margin."""
    return 2 * seconds + 110


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not any(os.path.exists(os.path.join(out_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]

    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
