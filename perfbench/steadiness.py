#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and prints, for each
end-to-end metric, its median, quartiles, min/max and spread (the distance
between the quartiles as a share of the median) beside its bound from
BENCHMARK.json, so bounds are set from measured spread.

    python3 perfbench/steadiness.py --workload cegar --runs 10
    python3 perfbench/steadiness.py --workload cegar --runs 10 \\
        --compare ../other-checkout

Run i uses seed --first-seed + i. With --compare, the same runs are also
made in a second checkout, interleaved in time (A B B A A B ...), because
the host drifts within minutes; the report then gives both sides' medians
and the change of B against A.

Every request's work digest (its work counters, or in `deadline` its
within-budget outcome) must also agree over all runs of both checkouts;
any request that differs is printed and the script exits 1.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory as committed

import benchlib  # noqa: E402


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        sys.exit("run failed in %s (seed %d)" % (checkout, seed))
    result = json.loads(last)
    calib = re.search(r"host\.calibration_ms ([0-9.]+)", proc.stdout)
    work = re.search(r"^work (.*)$", proc.stdout, re.MULTILINE)
    if not result["correct"]:
        sys.exit("incorrect result in %s (seed %d)" % (checkout, seed))
    got = {k: v["value"] for k, v in result["metrics"].items()}
    return (got, float(calib.group(1)) if calib else float("nan"),
            json.loads(work.group(1)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--compare", metavar="CHECKOUT",
                    help="second checkout, run interleaved with this one")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    sides = [ROOT] + ([os.path.abspath(args.compare)] if args.compare else [])

    values = [dict() for _ in sides]
    digests = []
    for k in range(args.runs):
        seed = args.first_seed + k
        order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
        for s in order:
            got, calib, work = run_once(sides[s], args.workload, seed,
                                        seconds)
            digests.append(("%s/seed %d" % ("AB"[s], seed), work))
            for name, v in got.items():
                values[s].setdefault(name, []).append(v)
            print("run %d side %s seed %d calib %.3f ms: %s" % (
                k, "AB"[s], seed, calib,
                " ".join("%s=%.6g" % kv for kv in sorted(got.items()))),
                flush=True)

    for side, vals in zip("AB", values):
        print("\n%s, side %s, %d runs, %g s each" % (
            args.workload, side, args.runs, seconds))
        print("%-16s %12s %12s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for name, v in vals.items():
            med, q1, q3, lo, hi, rel = benchlib.spread(v)
            bound = bounds.get(name, float("nan"))
            flag = "  > bound/3" if rel > bound / 3 else ""
            print("%-16s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s"
                  % (name, med, q1, q3, lo, hi, 100 * rel, 100 * bound, flag))
    if args.compare:
        print("\n%-16s %12s %12s %9s" % ("metric", "median A", "median B",
                                         "B vs A"))
        for name in values[0]:
            a = benchlib.spread(values[0][name])[0]
            b = benchlib.spread(values[1][name])[0]
            print("%-16s %12.6g %12.6g %8.1f%%" % (
                name, a, b, 100 * (b - a) / a if a else 0.0))

    flips = benchlib.cross_run_violations(digests)
    print("\nwork digests of %d requests over %d runs: %s" % (
        len({key for _, d in digests for key in d}), len(digests),
        "%d differ" % len(flips) if flips else "all agree"))
    for line in flips:
        print("  DIFFERS " + line)
    if flips:
        sys.exit(1)


if __name__ == "__main__":
    main()
