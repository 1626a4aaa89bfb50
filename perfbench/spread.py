#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each workload, run the benchmark once per seed, then
report per metric the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``), against the metric's
bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads churn,storm]
        [--trace 0] [--out results.json]

Run from the repository root. Exits 1 if any spread (other than
``setup_s``) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                sys.exit(1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            reps = [l for l in out.stdout.splitlines() if l.startswith("rep:")]
            runs.append({"seed": seed, "wall_s": wall, "reps": reps, "result": result})
            print(f"{w} seed {seed}: {wall:.1f} s", flush=True)
        raw[w] = runs
        names = list(runs[0]["result"]["metrics"])
        print(f"\n{w}: {'metric':<22} {'median':>14} {'iqr/median':>11} {'bound':>6}")
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound and name != "setup_s":
                    flag, ok = "OVER BOUND", False
                elif spread > bound / 3:
                    flag = "over bound/3"
            print(f"{w}: {name:<22} {med:>14.6g} {spread:>11.4f} "
                  f"{bound if bound is not None else '':>6} {flag}")
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
