#!/usr/bin/env python3
"""Appends one row to a workload's committed benchmark trajectory.

    python3 bench/bench_row.py --workload cegar [--checkout DIR] [--label TEXT]

Runs `perfbench/run.py --workload W --seed 1 --seconds 20` of the checkout
(default: this repository) once at `--trace 0` and once at `--trace 1`,
reads the JSON object each prints as its last line, and appends one row to
BENCH_<W>.json at the root of this repository:

    {"commit": ..., "date": ..., "label": ..., "seed": 1, "seconds": 20,
     "host.calibration_ms": ..., "end_to_end": {...}, "per_layer": {...}}

`commit` is the hash of the checkout's HEAD. The script refuses a checkout
with uncommitted changes to tracked files (other than the BENCH_*.json
files themselves), so every row names the code it measured: commit a
change first, then append its rows. Pass --checkout to measure another
checkout, such as a clone of the parent commit, into this repository's
files. The script exits non-zero, and appends nothing, if either run fails
or reports `correct: false`.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SECONDS = 20


def fail(message):
    print("bench_row: " + message, file=sys.stderr)
    sys.exit(1)


def run(checkout, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("%s reported correct: false" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def commit_of(checkout):
    """The checkout's HEAD; fails if tracked files other than the
    trajectory files differ from it."""
    changed = subprocess.check_output(
        ["git", "status", "--porcelain", "--untracked-files=no", "--",
         ".", ":(exclude,glob)BENCH_*.json"], cwd=checkout, text=True)
    if changed.strip():
        fail("%s has uncommitted changes; commit them first:\n%s"
             % (checkout, changed.rstrip()))
    return subprocess.check_output(
        ["git", "rev-parse", "--short=12", "HEAD"],
        cwd=checkout, text=True).strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--checkout", default=ROOT)
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    checkout = os.path.abspath(args.checkout)
    commit = commit_of(checkout)
    end_to_end = run(checkout, args.workload, trace=0)
    per_layer = run(checkout, args.workload, trace=1)
    row = {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "label": args.label,
        "seed": SEED,
        "seconds": SECONDS,
        "host.calibration_ms": per_layer["host.calibration_ms"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }

    path = os.path.join(ROOT, "BENCH_%s.json" % args.workload)
    rows = []
    if os.path.exists(path):
        with open(path) as f:
            rows = json.load(f)
    rows.append(row)
    with open(path, "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
        f.write("\n")
    print("%s: row %d, commit %s, solve_s %.3f" % (
        os.path.basename(path), len(rows), row["commit"],
        end_to_end["solve_s"]))


if __name__ == "__main__":
    main()
