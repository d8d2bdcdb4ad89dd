#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed and prints, for every end-to-end
metric in BENCHMARK.json, the median of the runs and the spread: the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        if done.returncode != 0:
            sys.exit("run with seed %d failed (status %d)"
                     % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-22s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-22s %14.6g %8.4f %8.3f" % (m["name"], med, (q3 - q1) / med,
                                          m["bound"]))


if __name__ == "__main__":
    main()
