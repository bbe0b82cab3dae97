#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

Runs the benchmark once per seed on each workload, untraced, and prints
a Markdown table row per workload and end-to-end metric: the median of
the per-run values, their first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and that share against a third of the metric's
bound. Run from the repository root:

    python3 perfbench/steady.py [--workloads fleet,wordcount-ssd] [--seeds 1-10]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    print("| workload | metric | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    failed = False
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(last)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: incorrect result {last}", file=sys.stderr)
                failed = True
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"{w}: " + "; ".join(f"{k} " + " ".join(f"{x:.4g}" for x in v)
                                    for k, v in values.items()), file=sys.stderr)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            mark = "" if spread < m["bound"] / 3 else " (over)"
            print(f"| {w} | {m['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.2%}{mark} | {m['bound'] / 3:.2%} |", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
