#!/usr/bin/env python3
"""Build and run the Cloud4Home benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --all

The driver and the simulator libraries are built from source into
.bench_build/perfbench at the checkout root (CMake, optimised), then the
measurement code's self-test runs, then the driver. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. --all runs both modes in separate processes (peak RSS must
not include the traced round) and prints every metric.

Exits non-zero, without a result line, when the sources are missing, the
build or the self-test fails, or the driver's correctness checks fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
    steps = [configure, ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    return selftest.returncode == 0


def run_driver(args, trace):
    """Runs one driver process; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    # The driver's JSON line is passed on only by main(), only on success.
    sys.stdout.write("\n".join(lines[:-1] if result is not None else lines) + "\n")
    if proc.returncode != 0 or result is None or not result.get("correct"):
        log("perfbench: driver failed (exit %d)" % proc.returncode)
        return proc.returncode or 1, None
    return 0, result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace", type=int, choices=(0, 1))
    mode.add_argument("--all", action="store_true", help="both modes, every metric")
    args = p.parse_args()

    if not build():
        return 2
    modes = [0, 1] if args.all else [args.trace]
    combined = None
    for trace in modes:
        code, result = run_driver(args, trace)
        if result is None:
            return code
        if combined is None:
            combined = result
        else:
            combined["metrics"].update(result["metrics"])
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
