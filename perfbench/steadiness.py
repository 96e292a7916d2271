#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs each workload once per seed, untraced, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root after building the benchmark once, e.g.
with the command in BENCHMARK.json. Runs are sequential: concurrent
runs would measure each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            if done.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
            result = json.loads(last)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs incorrect")
            run_wide = [l for l in done.stdout.splitlines() if l.startswith("run-wide:")]
            print(f"{workload} seed {seed}: {run_wide[-1] if run_wide else ''}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, series in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(series, n=4)
            med = statistics.median(series)
            spread = (q3 - q1) / med if med else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bounds[name]:>6}")
    print(f"largest spread / bound, setup_s excluded: {worst:.3f}")


if __name__ == "__main__":
    main()
