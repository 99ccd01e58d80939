#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` runs the end-to-end binary and prints the end-to-end
metrics; `--trace 1` builds and runs the per-layer ledger instead. The
build goes to $CARGO_TARGET_DIR (default `.bench_build`); checkpoints,
snapshot stores and rendered tables go to a scratch directory under it
that is removed when the run ends. The last line of standard output is
the one-line JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("paper_campaign", "policy_tournament", "serve_saturated")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    binary = "ledger" if args.trace else "perfbench"
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest, "--bin", binary]
    if args.trace:
        build += ["--features", "ledger"]
    # Cargo's output goes to stderr so the result stays the last line.
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The serve workload runs on one CPU. On a 2-vCPU VM its per-request
    # hand-offs between client, connection and shard threads otherwise
    # wait on cross-CPU wake-ups of halted or preempted vCPUs, and its
    # figures measure the hypervisor more than the server.
    pin = None
    if args.workload == "serve_saturated" and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})

    os.makedirs(target, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=target)
    try:
        run = subprocess.run(
            [os.path.join(target, "release", binary),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--tmp", scratch],
            env=env, preexec_fn=pin)
        return run.returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
