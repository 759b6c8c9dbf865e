#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1] [--log DIR]
                                [workload ...]

For every workload (default: all in BENCHMARK.json) and seed, runs
perfbench/run.py with the configured run_seconds and prints, per metric,
the median, the quartiles (statistics.quantiles(n=4)) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. With --log, each run's full stdout is kept in
DIR/<workload>-<seed>.txt. Exits non-zero if any run fails or reports incorrect
answers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--log", help="directory for each run's stdout")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if args.log:
                os.makedirs(args.log, exist_ok=True)
                with open(os.path.join(args.log, "%s-%d.txt" %
                                       (workload, seed)), "w") as f:
                    f.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print("%s seed %d failed (rc %d): %s" % (
                    workload, seed, proc.returncode, proc.stderr.strip()))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%s)" % (workload, args.seeds))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], None, vals[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("  %-34s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f%s"
                  % (name, med, q1, q3, spread,
                     "  bound %.2f" % bound if bound else ""))
            print("    " + " ".join("%.5g" % v for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
