#!/usr/bin/env python3
"""Steadiness check: runs the benchmark k times per workload, interleaved by
workload, each run with its own seed, and prints every end-to-end metric's
median, quartiles and spread (Q3 - Q1) / median against its bound.

    python3 e2ebench/steady.py --runs 10

Run from the repository root. Seeds are 1..k; the workloads and the run
length are those of BENCHMARK.json. A spread above a third of the bound is marked
'WIDE'; the bounds in BENCHMARK.json were set from this command's output.
The figures printed as "not gated" are listed last, without a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    # The not-gated figures are printed as "<name> <value> <unit> ... (not
    # gated)" lines; keep them for the spread table too.
    result["not_gated"] = {
        line.split()[0]: float(line.split()[1])
        for line in lines if line.endswith("(not gated)")}
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            r = run_once(spec, w, seed)
            results[w].append(r)
            print(f"run {seed}/{args.runs} {w} seed {seed}: correct "
                  f"{r['correct']}, failed {r['failed']}/{r['attempted']}",
                  file=sys.stderr)

    def row(name, vals, bound):
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if bound is None or spread <= bound / 3 else "  WIDE"
        print(f"  {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {shares}")
        print(f"  {'metric':<22} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            row(m["name"], [r["metrics"][m["name"]]["value"] for r in runs],
                m["bound"])
        for name in runs[0]["not_gated"]:
            row(name, [r["not_gated"][name] for r in runs], None)


if __name__ == "__main__":
    main()
