#!/usr/bin/env python3
"""Steadiness report: run one workload N times and summarise each metric.

    python3 xpbench/steady.py --workload fill_rt --runs 10 --seconds 10

Runs `bash xpbench/run.sh --trace 0` from the checkout that holds this
script, once per seed (1, 2, ...), and prints for every end-to-end metric its
median, first and third quartile (statistics.quantiles, n=4), the
interquartile range as a share of the median, and (max-min)/median.

With --against DIR it also runs the benchmark of the checkout DIR (for
example the parent commit) on the same seeds, alternating which side runs
first, and reports both sides and the change of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds):
    cmd = ["bash", "xpbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} failed ({p.returncode}):\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"warning: seed {seed} in {root}: {res['failed']} of {res['attempted']} operations failed",
              file=sys.stderr)
    return res


def summarise(results):
    rows = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rel = (lambda x: x / med) if med else (lambda x: float("nan"))
        rows[name] = dict(unit=unit, median=med, q1=q1, q3=q3,
                          iqr=rel(q3 - q1), range=rel(max(vals) - min(vals)), values=vals)
    return rows


def print_rows(title, rows):
    print(title)
    print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'rng/med':>8}  unit")
    for name, r in rows.items():
        print(f"  {name:36} {r['median']:14.6g} {r['q1']:14.6g} {r['q3']:14.6g} "
              f"{r['iqr']:8.4f} {r['range']:8.4f}  {r['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--against", help="checkout of another commit to compare with, run alternately")
    a = ap.parse_args()

    mine, other = [], []
    for i in range(a.runs):
        seed = i + 1
        order = [(ROOT, mine)]
        if a.against:
            order.append((os.path.abspath(a.against), other))
            if i % 2:
                order.reverse()
        for root, out in order:
            out.append(run_once(root, a.workload, seed, a.seconds))
            print(f"run {i + 1}/{a.runs} seed {seed} {root}: done", file=sys.stderr)

    rows = summarise(mine)
    print_rows(f"{a.workload}: {a.runs} runs of {ROOT}", rows)
    if a.against:
        base = summarise(other)
        print_rows(f"{a.workload}: {a.runs} runs of {a.against}", base)
        print("change of the median (this checkout vs --against):")
        for name, r in rows.items():
            b = base[name]["median"]
            print(f"  {name:36} {(r['median'] - b) / b if b else float('nan'):+9.4f}")


if __name__ == "__main__":
    main()
