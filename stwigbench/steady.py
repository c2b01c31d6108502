#!/usr/bin/env python3
"""Steadiness check for the stwigd benchmark.

Runs the command in BENCHMARK.json on every workload, in one or two sets of
runs with a different --seed each run. With two sets the runs alternate
(A, B, A, B, ...) so host noise falls on both sets alike. For every
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and, with two sets, how far set
B's median drifted from set A's, and compares them with the metric's bound:

  - each spread, except setup_s's, must stay within the bound;
  - each drift, setup_s's too, must not be worse than the bound;
  - the share of failed operations must be identical in both sets.

Run it from the repository root:

  python3 stwigbench/steady.py --runs 10 --sets 2
  python3 stwigbench/steady.py --runs 5 --sets 1 --workloads paper_topk

Exit status 1 when any comparison fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    notes = [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]
    return res, notes, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=100, help="first seed; set B starts 1000 later")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    metrics = bench["end_to_end"]

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in args.workloads:
                seed = args.seed + 1000 * s + i
                res, notes, wall = run_once(bench["command"], w, seed, args.seconds)
                steal = next((n for n in notes if n.startswith("steal_pct")), "")
                print(f"run {i} set {'AB'[s]} {w} seed {seed}: {wall:.1f}s wall, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']} {steal}",
                      flush=True)
                if not res["correct"]:
                    raise SystemExit(f"{w} seed {seed}: outputs were not correct")
                results[w][s].append(res)

    ok = True
    for w in args.workloads:
        print(f"\n== {w}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in results[w]]
        print(f"failed share per set: {shares}")
        if len(shares) == 2 and shares[0] != shares[1]:
            ok = False
            print("FAIL: failed shares differ between the sets")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, meds = [], []
            for runs in results[w]:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = " (spread>bound/3)"
                cells.append(f"med {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}{flag}")
            line = f"{name:18} bound {bound:.2f} | " + " | ".join(cells)
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
                if m["better"] == "higher":
                    worse = -worse
                line += f" | B worse by {worse:+.3f}"
                if worse > bound:
                    line, ok = line + " DRIFT>BOUND", False
            print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
