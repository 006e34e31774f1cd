#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tcp-hit --seed 1 --seconds 30 --trace 0

`--workload all` runs tcp-hit, inproc-dram and tcp-write in turn.

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, and passes its output through.  The
last line of standard output is the result as one JSON object.  The exit
code is non-zero when the build fails, the run fails or times out, or any
output check fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tcp-hit", "inproc-dram", "tcp-write"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    knobs = sorted(k for k in os.environ if k.startswith("CPHASH_"))
    if knobs:
        fail(
            f"refusing to run with {', '.join(knobs)} set; the benchmark measures "
            "the shipped defaults, so unset every CPHASH_* variable",
            2,
        )
    parser = argparse.ArgumentParser(description="CPHash repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}", 3)

    binary = os.path.join(target_dir, "release", "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, env, target_dir, workload, args) for workload in workloads]
    sys.exit(max(codes))


def run_one(binary, env, target_dir, workload, args):
    """Run one workload; pass its output on; return the exit code."""
    command = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(target_dir, "perfbench"),
    ]
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s and was stopped", 4)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            result = None
    except (TypeError, ValueError):
        result = None
    if result is None or run.returncode not in (0, 1):
        # No result: pass on what the run printed, minus any result line.
        kept = lines[:-1] if result is not None else lines
        sys.stdout.write("".join(line + "\n" for line in kept))
        fail(f"{workload}: run failed with exit code {run.returncode} and no result", run.returncode or 5)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    main()
