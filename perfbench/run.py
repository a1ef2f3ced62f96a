#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `repro` binary (root workspace) and the `perfbench` harness
(its own workspace in this directory) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the harness, adds the harness process's
peak resident memory (which covers the `repro` processes it waits for),
and prints one JSON object as the last line of stdout. Exits non-zero,
printing no result, when the sources are missing, the build fails, the
harness fails or its metrics differ from those BENCHMARK.json declares.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "crates", "pim-sim", "Cargo.toml")):
        fail("the simulator's sources (crates/) are not in this checkout")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pim-sim", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_harness(cmd, env):
    """Runs the harness; returns its stdout lines and its rusage."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(HARNESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    return lines, usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    # Two malloc arenas, one per core: with glibc's default (8 per core)
    # the daemon workload's peak RSS depends on which threads happen to
    # get fresh arenas, not on the program.
    env = dict(os.environ, CARGO_TARGET_DIR=target, MALLOC_ARENA_MAX="2")
    build(env)
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)

    lines, usage = run_harness([
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--repro", os.path.join(target, "release", "repro"),
        "--expected", os.path.join(HERE, "expected.json"),
        "--out-dir", out_dir,
    ], env)
    if not lines:
        fail("harness printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; it covers waited-for children.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"declared {sorted(units.items())}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
