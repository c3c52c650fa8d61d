#!/usr/bin/env python3
"""Measures how steady the benchmark's metrics are across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
        [--out FILE.json] [--compare OTHER.json]

Runs perfbench/run.py once per (workload, seed) from the repository root,
with the run length BENCHMARK.json sets, and reports for every metric the
median, the quartiles (Python's statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median against the metric's bound. With --compare it
also reports, per metric, how far this set's median moved from the other
set's, in the direction that counts as worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                out = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}, no result\n{proc.stderr}")
            # A run whose answers failed still reports its metrics (and exits
            # 1); its failures are recorded next to them.
            if proc.returncode != (0 if out["correct"] else 1):
                sys.exit(f"{w} seed {seed}: exit {proc.returncode} with correct={out['correct']}")
            runs.append(out)
            print(f"  {w} seed {seed} done: failed {out['failed']} of {out['attempted']}",
                  file=sys.stderr)
        names = list(runs[0]["metrics"])
        result["workloads"][w] = {
            n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names
        }
        result["failed"] = result.get("failed", {})
        result["failed"][w] = [[r["failed"], r["attempted"]] for r in runs]
    other = None
    if args.compare:
        with open(args.compare) as f:
            other = json.load(f)
    for w, ms in result["workloads"].items():
        failed = result["failed"][w]
        print(f"{w}  ({len(seeds_of(args.seeds))} seeds, {seconds} s, trace {args.trace}; "
              f"failed ops per run: {', '.join(f'{f}/{a}' for f, a in failed)})")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              + ("  worse-than-other" if other else ""))
        for n, s in ms.items():
            bound = specs.get(n, {}).get("bound")
            line = (f"  {n:32} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                    f"{s['spread']:8.4f} {bound if bound is not None else '-':>6}")
            if other and n in other["workloads"].get(w, {}):
                om = other["workloads"][w][n]["median"]
                worse = (s["median"] - om) / om if om else 0.0
                if specs.get(n, {}).get("better") == "higher":
                    worse = -worse
                line += f"  {worse:+.4f}"
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
