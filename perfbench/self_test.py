#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/self_test.py

Runs every workload at a tiny length twice and asserts that the exact
counts (hash chain, events, switches, acquisitions) are identical, that no
check failed (error_ratio 0), and that fig5_sweep's counts match between
jobs=1 and jobs=nproc. Then makes one tiny traced run and asserts that the
end-to-end and per-layer metric names are exactly those BENCHMARK.json
lists. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("hash", "events", "switches", "acquisitions")


def run_binary(binary, out, workload, trace="0", jobs=None, seed=1):
    jobs = jobs or len(os.sched_getaffinity(0))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", trace, "--jobs", str(jobs), "--tiny",
           "--out", str(out)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit("FAIL %s: exit status %d\n%s" % (" ".join(cmd),
                                                  done.returncode, done.stdout))
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def main():
    sys.path.insert(0, str(HERE))
    import run  # the build helper

    binary = run.build()
    out = run.build_dir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {}
    for workload in run.WORKLOADS:
        first_info, first = run_binary(binary, out, workload)
        second_info, second = run_binary(binary, out, workload)
        for info, result in ((first_info, first), (second_info, second)):
            check(result["correct"] and result["failed"] == 0,
                  "%s: every check passes (error_ratio 0)" % workload)
        check(set(first["metrics"]) ==
              {m["name"] for m in spec["end_to_end"]},
              "%s: reports exactly the end-to-end metrics" % workload)
        same = all(first_info.get(k) == second_info.get(k) for k in COUNTS)
        check(same, "%s: exact counts identical across two runs" % workload)
        counts[workload] = {k: first_info.get(k) for k in COUNTS}

    serial_info, _ = run_binary(binary, out, "fig5_sweep", jobs=1)
    check(all(serial_info.get(k) == counts["fig5_sweep"][k] for k in COUNTS),
          "fig5_sweep: counts identical at jobs=1 and jobs=nproc")

    _, traced = run_binary(binary, out, "scale_1024", trace="1")
    check(traced["correct"], "traced run: every check passes")
    check(set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]},
          "traced run: reports exactly the per-layer metrics")
    print("self-test passed")


if __name__ == "__main__":
    main()
