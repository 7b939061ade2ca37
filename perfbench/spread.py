#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance rule computes it.

Runs the command of BENCHMARK.json once per seed on each workload and
prints, per metric, the median over the runs and the distance between the
first and third quartile as a share of the median, next to the metric's
bound and a third of it (the steadiness target).

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--trace 0]
        [--workload cross20 ...]

Run it from the repository root. With --out, every run's last line is also
appended to that file as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f} target {bound / 3:.3f} " + (
                    "ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:36s} median {med:14.6g} spread {spread:.4f} {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
