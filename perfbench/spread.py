#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
metric, the median and the quartile spread (q3 - q1) / median over the runs.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1] [workload ...]

Run from the repository root. The command and run length come from
BENCHMARK.json, and end-to-end spreads are checked against their bounds.
The summary is printed as one JSON object on the last line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    summary = {}
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[name], "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{workload:<26} {name:<32} median {median:<14.6g} spread {spread:.4f} {flag}",
                  file=sys.stderr)
        summary[workload] = rows
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
