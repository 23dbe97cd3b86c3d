#!/usr/bin/env python3
"""Run one perfbench workload N times and print how steady each metric is.

    python3 perfbench/steady.py --workload read-local --runs 10
    python3 perfbench/steady.py --workload read-local --runs 10 --alt ../other-checkout

Each run takes the next seed (--seed, --seed+1, ...). With --alt, runs
alternate between this checkout and another one (another build of the
code), seed for seed, so both see the same inputs and the same machine
drift. For every metric it prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4), and the spread
(Q3 - Q1) / median; with --alt also the second build's median relative
to the first's. Failed or incorrect runs are reported and left out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "exit %d" % p.returncode
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        return None, "correct=%s failed=%d" % (res["correct"], res["failed"])
    return res["metrics"], None


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="window length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--alt", help="root of a second checkout to alternate with")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    roots = [ROOT] + ([os.path.abspath(args.alt)] if args.alt else [])
    got = [dict() for _ in roots]
    for i in range(args.runs):
        for b, root in enumerate(roots):
            m, err = run_one(root, args.workload, args.seed + i, seconds, args.trace)
            if err:
                print("run %d build %d: %s" % (i, b, err), flush=True)
                continue
            print("run %d build %d: %s" % (i, b, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in sorted(m.items()))), flush=True)
            for k, v in m.items():
                got[b].setdefault(k, []).append(v["value"])
    print()
    print("%-40s %5s %12s %12s %12s %8s%s" % ("metric", "build", "median", "q1", "q3", "spread",
                                          "  vs build 0" if args.alt else ""))
    for k in sorted(got[0]):
        base = None
        for b in range(len(roots)):
            vals = got[b].get(k, [])
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            rel = ""
            if b == 0:
                base = med
            elif base:
                rel = "  %+.2f%%" % (100 * (med / base - 1))
            print("%-40s %5d %12.6g %12.6g %12.6g %7.2f%%%s" % (k, b, med, q1, q3, 100 * spread, rel))


if __name__ == "__main__":
    main()
