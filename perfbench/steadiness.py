#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json as two sets of ten untraced runs of
run_seconds each (seeds 1-10 in both sets), interleaving the sets and
alternating the order of workloads and sets from one seed to the next, so
slow host drift lands on both sets alike. For each end-to-end metric it
prints each set's median and quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and whether

  * each set's spread stays within the metric's bound,
  * the two medians agree within the bound, in both directions,
  * every seed gave the same simulated metrics and per-op digest in both
    sets (those must repeat exactly).

Bounds come from BENCHMARK.json. Exits 1 when any check fails.
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("sim_p50_ms", "sim_p99_ms", "sim_slo_ratio", "ok_ratio")
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run failed: " + " ".join(cmd))
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    digest = re.search(r"run digest ([0-9a-f]+)", proc.stdout)
    result["digest"] = digest.group(1) if digest else None
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(SEEDS)

    results = {(w, s): {} for w in workloads for s in ("A", "B")}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        sets = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in order:
            for s in sets:
                results[(w, s)][seed] = run_once(w, seed, seconds)
                m = results[(w, s)][seed]["metrics"]
                print("%-10s set %s seed %d: %s" % (w, s, seed, ", ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in m.items())), flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs per set, %d s each)" % (w, len(seeds), seconds))
        print("%-14s %-36s %-36s %9s %6s  %s" % ("metric", "set A median [q1, q3] spread",
                                                  "set B median [q1, q3] spread", "B vs A", "bound", "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            sp = {}
            med = {}
            for s in ("A", "B"):
                vals = [results[(w, s)][seed]["metrics"][name]["value"] for seed in seeds]
                med[s], q1, q3, sp[s] = spread(vals)
                cells.append("%.6g [%.6g, %.6g] %.3f" % (med[s], q1, q3, sp[s]))
            worse = (med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            verdict = []
            if max(sp.values()) > bound:
                verdict.append("SPREAD>bound")
            if abs(worse) > bound:
                verdict.append("MEDIANS DIFFER")
            if max(sp.values()) > bound / 3:
                verdict.append("(spread>bound/3)")
            if any(v != "(spread>bound/3)" for v in verdict):
                ok = False
            print("%-14s %-36s %-36s %+9.4f %6.3f  %s" % (name, cells[0], cells[1], worse, bound,
                                                          " ".join(verdict) or "ok"))
        identical = True
        for seed in seeds:
            a, b = results[(w, "A")][seed], results[(w, "B")][seed]
            same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in SIMULATED)
            if not (same and a["digest"] == b["digest"] and a["attempted"] == b["attempted"]):
                print("seed %d: simulated metrics or digest differ between sets" % seed)
                identical = False
        ok = ok and identical
        print("simulated metrics and digests identical across sets: %s" %
              ("yes" if identical else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
