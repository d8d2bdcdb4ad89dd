#!/usr/bin/env python3
"""Regenerate perfbench/pins.json: the acquisition-order hash chain of each
simulator workload at its benchmark length, for the default seed, the
held-out seed and seeds 2..10.

    python3 perfbench/pin.py

A change that alters what the simulator computes (not just how fast) moves
these hashes; re-pin only when that is the intent, and say so.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIM_WORKLOADS = ("fig5_sweep", "scale_1024", "kv_service")


def main():
    sys.path.insert(0, str(HERE))
    import run  # the build helper

    binary = run.build()
    pins_path = HERE / "pins.json"
    doc = json.loads(pins_path.read_text())
    seeds = sorted({doc["default_seed"], doc["held_out_seed"], *range(2, 11)})
    pins = {}
    for workload in SIM_WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            done = subprocess.run(
                [str(binary), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--jobs", "1",
                 "--out", str(run.build_dir())],
                stdout=subprocess.PIPE, text=True, check=True)
            info = json.loads(done.stdout.strip().splitlines()[-2])
            pins[workload][str(seed)] = info["hash"]
            print(workload, seed, info["hash"], file=sys.stderr)
    doc["pins"] = pins
    pins_path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
