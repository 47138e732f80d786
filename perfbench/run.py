#!/usr/bin/env python3
"""Build the benchmark and make one run of it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds the benchmark package (perfbench/Cargo.toml) and the
congest-serve binary in release mode into $CARGO_TARGET_DIR (default
.bench_build), runs the perfbench binary at two pool lanes, and passes its
output through: log lines, then the result object as the last line. A
failed build or run exits non-zero and prints no result line.

--self-test builds the same way and runs the benchmark's own tests,
including the socket client against the freshly built congest-serve.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("dense_negative", "sparse_positive", "lossy_arq", "serve_mixed")
LANES = "2"
# The first run in a checkout compiles everything; later builds are no-ops.
BUILD_BUDGET_S = 870
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, env, timeout, stdout=None):
    """Runs cmd from ROOT in a process group of its own, so that on a
    timeout the whole group, servers included, is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(env):
    """Builds perfbench and congest-serve; returns their paths."""
    deadline = time.monotonic() + BUILD_BUDGET_S
    for args in (
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "serve", "--bin", "congest-serve"],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        code, _ = run(cmd, env, max(1.0, deadline - time.monotonic()),
                      stdout=sys.stderr)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed with code {code}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "congest-serve")


def main():
    ap = argparse.ArgumentParser(description="Build the benchmark and make one run of it.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests instead")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds):
        ap.error("--workload, --seed and --seconds are required")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        perfbench, serve_bin = build(env)
        if a.self_test:
            cmd = ["cargo", "test", "--release", "--offline",
                   "--manifest-path", os.path.join(HERE, "Cargo.toml")]
            code, _ = run(cmd, dict(env, CONGEST_SERVE_BIN=serve_bin), BUILD_BUDGET_S)
            return code
        cmd = [perfbench, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--serve-bin", serve_bin]
        code, out = run(cmd, dict(env, RAYON_NUM_THREADS=LANES), RUN_TIMEOUT_S,
                        stdout=subprocess.PIPE)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"run.py: perfbench exited with code {code}", file=sys.stderr)
        return code
    lines = out.strip().splitlines()
    try:
        ok = set(json.loads(lines[-1])) == RESULT_KEYS
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        print("run.py: perfbench printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
