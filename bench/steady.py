#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload repeatedly, each run in a
fresh process with its own seed, and print for every metric the median,
the quartiles, the interquartile spread as a share of the median and the
max/min ratio.

    python3 bench/steady.py --workload neumann-2d --runs 10 --seconds 30

Quartiles are those of ``statistics.quantiles(values, n=4)``.  Runs are
sequential, so they never compete for the two cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "max_min": max(values) / min(values) if min(values) > 0 else float("nan"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        line = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(line)
        shown = "  ".join(f"{k}={m['value']:.6g}" for k, m in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}  {shown}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, trace={args.trace}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'max/min':>8s}")
    for name, metric in results[0]["metrics"].items():
        s = summarize([r["metrics"][name]["value"] for r in results])
        print(f"{name:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['iqr_share']:8.4f} {s['max_min']:8.4f}  {metric['unit']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main()
