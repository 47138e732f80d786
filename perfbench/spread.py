#!/usr/bin/env python3
"""Spread of the end-to-end metrics across seeds.

Runs every workload of BENCHMARK.json once per seed through run.py and
prints, for every workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median) and the metric's bound, marking a spread of a third of its
bound or more as WIDE. Each run's figures go to standard error. Exits
non-zero if a run fails, a run's outputs are wrong, or a spread is wide.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description="Spread of the end-to-end metrics across seeds.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    wide = incorrect = 0
    print("| workload | metric | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for w in (w["name"] for w in bench["workloads"]):
        per_metric = {}
        for k in range(a.runs):
            seed = a.first_seed + k
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            incorrect += not result["correct"]
            figures = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
            print(f"# {w} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"{figures}", file=sys.stderr)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        for name, vs in per_metric.items():
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = ""
            if spread >= bounds[name] / 3:
                flag = "WIDE"
                wide += 1
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bounds[name]} | {flag} |", flush=True)
    return 1 if wide or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
