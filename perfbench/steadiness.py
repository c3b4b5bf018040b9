#!/usr/bin/env python3
"""Checks that the benchmark is steady, and measures its tracing overhead.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--traced N] [--out FILE]

Run it from the root of a source tree. For each workload it runs
perfbench/run.py untraced once per seed, then N traced runs (default 2) on
the first seeds. For every end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. The tracing overhead of a
metric is the median of the traced runs' own end-to-end values minus the
untraced median, as a share of the untraced median. --out writes all of it
as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("%s seed %d trace %d failed (exit %d)" % (workload, seed, trace,
                                                           out.returncode))
    run = json.loads(lines[-2][len("run "):])
    return {k: v["value"] for k, v in run["measured"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    report = {}
    for w in workloads:
        untraced = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        traced = [run_once(w, s, spec["run_seconds"], 1) for s in seeds[:args.traced]]
        rows = {}
        print("%s (%d seeds, %d traced)" % (w, len(seeds), len(traced)))
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in untraced]
            med = statistics.median(vals)
            row = {"median": med, "values": vals,
                   "spread": spread(vals) if len(vals) >= 2 else None,
                   "third_of_bound": m["bound"] / 3}
            if traced:
                tmed = statistics.median(r[m["name"]] for r in traced)
                row["tracing_overhead"] = (tmed - med) / med if med else None
            rows[m["name"]] = row
            print("  %-12s median %12.4f %-3s spread %6.2f%% (bound/3 %5.2f%%)%s" % (
                m["name"], med, m["unit"],
                100 * row["spread"] if row["spread"] is not None else float("nan"),
                100 * m["bound"] / 3,
                "  tracing %+.2f%%" % (100 * row["tracing_overhead"])
                if row.get("tracing_overhead") is not None else ""))
        report[w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
