#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of every workload.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the repository root, on one commit. For each workload it makes
`--runs` pairs of runs, alternating which set goes first; set A uses seeds
1.., set B seeds 101... For every end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median,
as statistics.quantiles(n=4) gives it) against the metric's bound, the
shift of B's median against A's, and the failed share of both sets. The
bounds in BENCHMARK.json were set from this output and can be re-checked
with it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1 if s == "A" else 101) + i
                sets[s].append(run(workload, seed, args.seconds))
                print("  %s %s seed %d done" % (workload, s, seed), file=sys.stderr)
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("  %-12s %3s %12s %12s %12s %8s %8s %8s" %
              ("metric", "set", "q1", "median", "q3", "spread", "shift", "bound"))
        for m in bench["end_to_end"]:
            name = m["name"]
            stats = {s: spread([r["metrics"][name]["value"] for r in sets[s]])
                     for s in sets}
            a, b = stats["A"][1], stats["B"][1]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            for s in ("A", "B"):
                q1, q2, q3, sp = stats[s]
                print("  %-12s %3s %12.5g %12.5g %12.5g %8.3f %8s %8.2f" %
                      (name, s, q1, q2, q3, sp, "%.3f" % worse if s == "B" else "",
                       m["bound"]))
                if name != "setup_s" and sp > m["bound"]:
                    ok = False
            if worse > m["bound"]:
                ok = False
        shares = {s: [r["failed"] / r["attempted"] for r in sets[s]] for s in sets}
        print("  failed share A %s, B %s" % (sorted(set(shares["A"])), sorted(set(shares["B"]))))
        if set(shares["A"]) != set(shares["B"]) or len(set(shares["A"])) != 1:
            ok = False
        if not all(r["correct"] for s in sets for r in sets[s]):
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
