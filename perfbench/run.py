#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench, then runs one workload and
prints its result object as the last line of standard output. Exits
non-zero, without a result, when the sources are missing or the build
fails, and with status 1 after printing a result whose checks failed.

Hash pins for (workload, seed) pairs live in perfbench/pins.json and are
passed to the binary, which fails the run on a mismatch.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5_sweep", "scale_1024", "kv_service", "native_locks")
RUN_TIMEOUT_S = 170


def build_dir():
    """The build tree, inside the checkout (CARGO_TARGET_DIR if relative)."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / base).resolve()
    if ROOT.resolve() not in path.parents and path != ROOT.resolve():
        path = ROOT / ".bench_build"
    return path / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out / "perfbench"


def pin_for(workload, seed):
    pins = json.loads((HERE / "pins.json").read_text())
    return pins["pins"].get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    jobs = len(os.sched_getaffinity(0))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--jobs", str(jobs), "--out", str(build_dir())]
    pin = pin_for(args.workload, args.seed)
    if pin is not None:
        cmd += ["--pin", pin]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: binary exited with status %d" % done.returncode)
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    for key in sorted(k for k in info if k.startswith("error.")):
        sys.stderr.write("perfbench: check failed: %s\n" % info[key])
    print(lines[-2])
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
