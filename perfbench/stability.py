#!/usr/bin/env python3
"""Stability self-check for the benchmark.

Runs one workload once per seed, then prints every metric's median,
quartiles and spread (interquartile range as a share of the median),
next to the metric's bound from BENCHMARK.json:

    python3 perfbench/stability.py --workload paper-1k --seeds 1-10

Rows in parentheses are the figures before host-speed normalisation
and the host speed itself (see README.md). Run it from the repository
root. It also reports the shortest timed region and the smallest
setup_s seen, which must stay at or above one second and one
millisecond: shorter regions are dominated by noise.
Each run's stdout is kept under .bench_build/stability/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="list like 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    outdir = os.path.join(".bench_build", "stability")
    os.makedirs(outdir, exist_ok=True)

    values, timed, failed = {}, [], 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        with open(os.path.join(outdir, f"{args.workload}-seed{seed}-trace{args.trace}.txt"), "w") as f:
            f.write(proc.stdout)
            f.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed += 1
            continue
        for line in lines:
            words = line.split()
            if line.startswith("# timed_region_s "):
                timed.append(float(words[2]))
            elif line.startswith("# raw "):
                values.setdefault("(raw) " + words[2], []).append(float(words[3]))
            elif line.startswith("# host speed "):
                values.setdefault("(host speed)", []).append(float(words[3]))
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            failed += 1
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {failed} failed runs")
    print(f"{'metric':32} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(name)
        flag = ""
        if b is not None and name != "setup_s" and spread > b / 3:
            flag = "  > bound/3"
        print(f"{name:32} {len(vs):3} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{'' if b is None else b:>6}{flag}")
    if timed:
        print(f"shortest timed region: {min(timed):.3f} s")
    if "setup_s" in values:
        print(f"smallest setup_s: {min(values['setup_s']) * 1000:.3f} ms")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
