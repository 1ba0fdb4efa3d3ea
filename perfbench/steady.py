"""Steadiness check: two sets of benchmark runs of one commit.

    python3 perfbench/steady.py --runs 10 [--workloads suite quotient]
    python3 perfbench/steady.py --traced      # two traced runs per workload

Each run is `perfbench/run.py` with its own seed, one at a time: set 1
takes seeds 100, 101, ..., set 2 seeds 1100, 1101, ....  For every
workload and end-to-end metric it prints each set's median and quartiles,
the quartile spread as a share of the median, and whether the sets agree
within the metric's bound in BENCHMARK.json: every spread within the
bound, the two medians apart by no more than the bound (either way), and
the same share of failed operations.  With --traced it runs two traced
runs per workload and compares every count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SET_SEEDS = (100, 1100)


def bench_run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct=false\n{proc.stderr}", flush=True)
    return result


def steadiness(spec, workloads, runs):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        collected = [[bench_run(spec, workload, first + i, 0) for i in range(runs)]
                     for first in SET_SEEDS]
        shares = {Fraction(r["failed"], r["attempted"])
                  for results in collected for r in results}
        print(f"{workload}: failed share {sorted(map(str, shares))}", flush=True)
        ok &= len(shares) == 1
        for name, m in bounds.items():
            medians = []
            for s, results in enumerate(collected):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                spread_ok = spread <= m["bound"]
                ok &= spread_ok
                print(f"  {name:12s} set {s + 1}: median {med:.4f} q1 {q1:.4f} "
                      f"q3 {q3:.4f} spread {spread:.4f} (bound {m['bound']}, "
                      f"a third {m['bound'] / 3:.4f}){'' if spread_ok else '  SPREAD'}",
                      flush=True)
            shift = (medians[1] - medians[0]) / medians[0]
            agree = abs(shift) <= m["bound"]
            ok &= agree
            print(f"  {name:12s} second set median {shift:+.4f} of the first: "
                  f"{'agree' if agree else 'DISAGREE'}", flush=True)
    return ok


def traced_counts(spec, workloads):
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    ok = True
    for workload in workloads:
        a, b = (bench_run(spec, workload, first, 1) for first in SET_SEEDS)
        differ = [n for n in counts
                  if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not differ
        print(f"{workload}: counts {'identical' if not differ else 'DIFFER ' + str(differ)}")
        for n in sorted(a["metrics"]):
            print(f"  {n:48s} {a['metrics'][n]['value']:.6g}  {b['metrics'][n]['value']:.6g}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.traced:
        ok = traced_counts(spec, workloads)
    else:
        ok = steadiness(spec, workloads, args.runs)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
