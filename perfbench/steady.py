#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, interleaved.

    python3 perfbench/steady.py [--runs N] [--workloads a,b] [--seconds S]

For each workload, run i of set A (seed 1000 + i) is followed directly
by run i of set B (seed 2000 + i), so slow drift of the host hits both
sets alike.  Per set and end-to-end metric the script reports the median
and quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median.  The sets agree when every spread but setup_s's is within the
metric's bound in BENCHMARK.json, the two medians differ, in either
direction, by at most the bound (as a share of the A median), and both
sets failed the same share of operations.  It also counts, per set, the runs
whose figures were fitted at zero steal rather than taken as the median
of undisturbed rounds.  Exit status 0 iff they agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out.stdout}")
    result["steal"] = sum(float(l.split(":")[1].split()[0]) for l in lines
                          if l.startswith("# hypervisor steal"))
    result["fitted"] = any(l.startswith("# end-to-end figures: at zero steal")
                           for l in lines)
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    agree = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1000), ("B", 2000)):
                sets[name].append(run_once(workload, base + i, args.seconds))
        print(f"== {workload} ({args.runs} runs per set, "
              f"{args.seconds} s each)")
        shares = {s: sum(r["failed"] for r in rs) /
                  sum(r["attempted"] for r in rs) for s, rs in sets.items()}
        if shares["A"] != shares["B"]:
            agree = False
        print(f"   failed share: A {shares['A']:.6f}  B {shares['B']:.6f}   "
              f"hypervisor steal, CPU-s per run: A "
              f"{max(r['steal'] for r in sets['A']):.2f} max, B "
              f"{max(r['steal'] for r in sets['B']):.2f} max   "
              f"runs fitted at zero steal: A "
              f"{sum(r['fitted'] for r in sets['A'])}, B "
              f"{sum(r['fitted'] for r in sets['B'])}")
        for mt in metrics:
            name, bound = mt["name"], mt["bound"]
            stats = {s: describe([r["metrics"][name]["value"] for r in rs])
                     for s, rs in sets.items()}
            (ma, q1a, q3a, sa), (mb, q1b, q3b, sb) = stats["A"], stats["B"]
            worse = (mb - ma) / ma if mt["better"] == "lower" else (ma - mb) / ma
            ok = abs(worse) <= bound and (name == "setup_s" or
                                          (sa <= bound and sb <= bound))
            agree = agree and ok
            print(f"   {name:22s} A {ma:12.5g} [{q1a:.5g}, {q3a:.5g}] "
                  f"spread {sa:6.3f}   B {mb:12.5g} [{q1b:.5g}, {q3b:.5g}] "
                  f"spread {sb:6.3f}   B worse by {worse:+.3f} "
                  f"(bound {bound})  {'ok' if ok else 'NO'}")
    print("sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
