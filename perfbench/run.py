#!/usr/bin/env python3
"""Build and run the DPML benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures|scale_10k|serve_mix \
        --seed N --seconds S --trace 0|1 [--serve-rate R]

It builds the `dpml` CLI (the serve daemon) from the repository's own
manifest and the benchmark package from perfbench/Cargo.toml, both into
$CARGO_TARGET_DIR (default .bench_build), pins itself and everything it
starts to two CPUs, runs the workload, and relays the benchmark's output.
The last line of standard output is the result as one JSON object. The exit
status is 0 only when the run completed and every output check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
CPUS = 2
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def pin_cpus():
    """Pin to the first CPUS allowed CPUs; children inherit it."""
    allowed = sorted(os.sched_getaffinity(0))
    chosen = allowed[:CPUS]
    os.sched_setaffinity(0, chosen)
    return chosen


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for args in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "dpml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        try:
            done = subprocess.run(args, cwd=root, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(args)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(args)}")


def run(cmd, root):
    """Run the benchmark binary, echo its output, return (code, last line)."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, (lines[-1] if lines else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "scale_10k", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--serve-rate", type=float, default=2000.0,
                        help="offered rate of the serve_mix open loop, req/s")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail("run from the root of a dpml checkout (no Cargo.toml or crates/ here)")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir

    cpus = pin_cpus()
    build(root, target_dir)
    print(f"cpus pinned: {cpus}")

    release = target_dir / "release"
    cmd = [
        str(release / "dpml-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", "perfbench/reference.json",
        "--dpml-bin", str(release / "dpml"),
        "--serve-rate", str(args.serve_rate),
        "--scratch", str(target_dir / "perfbench-scratch"),
    ]
    if args.trace:
        spans = target_dir / "perfbench-spans" / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    code, last = run(cmd, root)
    try:
        result = json.loads(last)
    except ValueError:
        fail(f"benchmark exited {code} without a result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"malformed result line: {last}")
    print(last)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
