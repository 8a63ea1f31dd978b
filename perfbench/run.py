#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload cegar --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt) into .bench_build/. The seed draws the
order of the committed pool in pools.json (and, for `serve`, its exact
repeats). The driver times every request round-robin for about --seconds;
this script checks verdicts and work determinism, aggregates, prints one
line per metric, a `work {...}` line with each request's work digest (for
comparing runs, see steadiness.py) and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric units come from BENCHMARK.json at the repository root.

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off. With --trace 1 they are the per-layer ones; that run also writes a
Chrome trace-event file to .bench_build/trace-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark's directory as committed

import benchlib  # noqa: E402

SERVE_ORDERS = 64
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def declared_units():
    """Maps every metric BENCHMARK.json declares to its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def run_driver(workload, requests, seed, seconds, trace, trace_file):
    spec = ["workload " + workload,
            "seconds %g" % seconds,
            "trace %d" % trace]
    if trace_file:
        spec.append("trace_file " + trace_file)
    spec += ["request %s %g" % (r["name"], r["budget"]) for r in requests]
    if workload == "serve":
        # Every serve round submits the same list in its own order.
        spec += ["order " + " ".join(r["name"] for r in order)
                 for order in benchlib.round_orders(requests, seed,
                                                    SERVE_ORDERS)]
    try:
        proc = subprocess.run([DRIVER], input="\n".join(spec) + "\n",
                              capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    errors = [r["msg"] for r in records if r["t"] == "error"]
    if proc.returncode != 0 or errors:
        sys.stderr.write(proc.stderr[-2000:])
        fail("driver failed (exit %d): %s" % (proc.returncode, errors))
    return records


def of_kind(records, kind):
    return [r for r in records if r["t"] == kind]


def best_sum(records, key):
    return sum(benchlib.best_of_rounds(records, key).values())


def share(part, whole):
    return part / whole if whole else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(workload, records, untraced_reqs, untraced_rounds):
    """Per-layer metrics of a traced run (see README.md for the map from
    each one to the end-to-end metric it should move). Times here are
    raw: best over rounds, not normalised by the host probe."""
    layers = of_kind(records, "layer")
    learns = of_kind(records, "learn")
    parses = of_kind(records, "parse")
    sched = of_kind(records, "sched")
    traced_rounds = [r for r in of_kind(records, "round") if r["traced"]]

    # Exact counters come from one traced round (they repeat); times are
    # each request's best over traced rounds.
    first = min((r["round"] for r in layers), default=None)
    one = [r for r in layers if r["round"] == first]
    fastest = {}
    for r in layers:
        rk = benchlib.request_key(r)
        if rk not in fastest or r["analysis_ms"] < fastest[rk]["analysis_ms"]:
            fastest[rk] = r
    m = {
        "frontend.encode_ms": best_sum(layers, "encode_ms"),
        "smtlib2.parse_ms": sum(r["parse_ms"] for r in parses),
        "smtlib2.print_ms": sum(r["print_ms"] for r in parses),
        "analysis.ms": best_sum(layers, "analysis_ms"),
    }
    for p in ("inline", "fact-reach", "query-cone", "intervals", "octagons",
              "polyhedra", "verify"):
        m["analysis.%s.ms" % p.replace("-", "_")] = sum(
            r["passes"].get(p, 0.0) for r in fastest.values())
    m.update({
        "analysis.lp_pivots": sum(r["lp_pivots"] for r in one),
        "analysis.xfer_hit_share": share(sum(r["xfer_hits"] for r in one),
                                         sum(r["xfer_lookups"] for r in one)),
        "analysis.verify_memo_hit_share": share(
            sum(r["verify_hits"] for r in one),
            sum(r["verify_lookups"] for r in one)),
        "analysis.discharged_share": share(
            sum(1 for r in one if r["discharged"]), len(one)),
        "cegar.ms": best_sum(layers, "cegar_ms"),
        "cegar.iterations": sum(r["iters"] for r in one),
        "cegar.samples": sum(r["samples"] for r in one),
        "cegar.smt_queries": sum(r["queries"] for r in one),
        "chc.checks": sum(r["checks"] for r in one),
        "chc.memo_hit_share": share(sum(r["memo_hits"] for r in one),
                                    sum(r["memo_lookups"] for r in one)),
        "chc.solver_reuse_share": share(
            sum(r["reused"] for r in one),
            sum(r["reused"] + r["rebuilt"] for r in one)),
        "chc.validate_ms": best_sum(layers, "validate_ms"),
        "ml.learn_ms": sum(r["ms"] for r in learns),
        "ml.learn_calls": len(learns),
        "ml.samples_per_call": share(sum(r["samples"] for r in learns),
                                     len(learns)),
        "ml.learn_ok_share": share(sum(1 for r in learns if r["ok"]),
                                   len(learns)),
    })

    # Scheduler and service layers, from the traced serve rounds.
    fresh = [r for r in sched if not r["cache"]]
    probe, topk, overhead, cancel = [], [], [], []
    for r in fresh:
        offset = 0.0
        winner = next((l for l in r["lanes"] if l["winner"]), None)
        for st in r["stages"]:
            offset += st["s"]
            if st["stage"] == "probe":
                probe.append(st["s"] * 1e3)
            elif st["stage"] == "top-k":
                topk.append(st["s"] * 1e3)
            # Lane overhead and cancel time of races (stages of 2+ lanes).
            if st["hit"] and winner and st["lanes"] > 1:
                overhead.append(max(0.0, st["s"] - winner["s"]) * 1e3)
                cancel.append(max(0.0, offset - winner["stop"]) * 1e3)
    served = [r for r in untraced_reqs if not r.get("rejected")]
    queue_ms = [r["queue"] * 1e3 for r in served if "queue" in r]
    run_ms = [r["run"] * 1e3 for r in served
              if "run" in r and not r.get("cache")]
    m.update({
        "sched.probe_ms_p50": median_or_zero(probe),
        "sched.topk_ms_p50": median_or_zero(topk),
        "sched.lane_overhead_ms_p50": median_or_zero(overhead),
        "sched.probe_hit_share": share(
            sum(1 for r in fresh
                if any(s["hit"] and s["stage"] == "probe" for s in r["stages"])),
            len(fresh)),
        "sched.escalation_share": share(
            sum(1 for r in fresh if r["escalated"]), len(fresh)),
        "sched.lanes_per_request": share(
            sum(len(r["lanes"]) for r in fresh), len(fresh)),
        "sched.cancel_ms_p50": median_or_zero(cancel),
        "server.queue_ms_p50": benchlib.percentile(queue_ms, 0.5) or 0.0,
        "server.queue_ms_p90": benchlib.percentile(queue_ms, 0.9) or 0.0,
        "server.run_ms_p50": median_or_zero(run_ms),
        "server.memo_hit_share": share(
            sum(1 for r in served if r.get("cache")), len(served)),
        "server.rejected_share": share(
            sum(1 for r in untraced_reqs if r.get("rejected")),
            len(untraced_reqs)),
    })

    # Budget overruns, from each request's best untraced latency.
    best = benchlib.best_of_rounds(served, "wall")
    budget = {benchlib.request_key(r): r["budget"] for r in served}
    over = [best[rk] - budget[rk] for rk in best]
    m["deadline.late_requests"] = sum(1 for o in over if o > 0)
    m["deadline.overrun_s"] = sum(o for o in over if o > 0)
    m["deadline.max_overrun_ms"] = max([0.0] + over) * 1e3

    if workload == "serve":
        traced = min(r["wall"] for r in traced_rounds)
        untraced = min(r["wall"] for r in untraced_rounds)
    else:
        traced = best_sum(layers, "traced_ms") / 1e3
        untraced = best_sum(untraced_reqs, "wall")
    m["trace.overhead"] = traced / untraced
    m["host.calibration_ms"] = probe_ms(untraced_rounds)
    return m


def probe_ms(rounds):
    """The median host probe time of the rounds, in ms."""
    return statistics.median(r["probe"] for r in rounds) * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units = declared_units()
    with open(os.path.join(HERE, "pools.json")) as f:
        pools = json.load(f)
    if args.workload not in pools:
        fail("unknown workload '%s' (have %s)"
             % (args.workload, ", ".join(sorted(pools))))
    pool = pools[args.workload]
    entries = [{"name": n, "budget": pool["budget"]} for n in pool["programs"]]
    requests = benchlib.draw(entries, args.seed, pool.get("repeat_share", 0.0))

    build()
    trace_file = None
    if args.trace:
        trace_file = os.path.join(BUILD, "trace-%s.json" % args.workload)
    records = run_driver(args.workload, requests, args.seed, args.seconds,
                         args.trace, trace_file)

    untraced = {r["round"] for r in of_kind(records, "round")
                if not r["traced"]}
    reqs = [r for r in of_kind(records, "req") if r["round"] in untraced]
    answered = [r for r in reqs if not r.get("rejected")]
    problems = benchlib.rejections(reqs)
    problems += benchlib.determinism_violations(answered, args.workload)
    wrong = [r for r in answered if benchlib.verdict_wrong(r) or not r["ok"]]
    problems += ["%s: wrong or failed verdict (%s)" % (r["name"], r["status"])
                 for r in wrong]
    # A rejected request fails everywhere; outside `deadline`, so does any
    # request not answered correctly within its budget.
    failed = len(reqs) - len(answered)
    if args.workload == "deadline":
        failed += len(wrong)
    else:
        failed += sum(1 for r in answered if not benchlib.within_budget(r))

    setups = of_kind(records, "setup")
    rounds = [r for r in of_kind(records, "round") if not r["traced"]]
    e2e = benchlib.end_to_end(args.workload, reqs, rounds, setups)
    e2e["peak_rss_mb"] = of_kind(records, "end")[0]["rss_mb"]
    if e2e["latency_ms_p50"] is None:
        fail("too few requests for a median latency")

    if args.trace:
        metrics = per_layer(args.workload, records, reqs, rounds)
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            problems.append("trace file holds no spans")
    else:
        metrics = e2e

    print("workload %s seed %d: %d requests x %d rounds, "
          "host.calibration_ms %.4f" % (args.workload, args.seed,
                                        len(requests), len(rounds),
                                        probe_ms(rounds)))
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        fail("metrics not in BENCHMARK.json: " + ", ".join(undeclared))
    for name, value in metrics.items():
        print("  %-34s %14.6f %s" % (name, value, units[name]))
    for p in problems:
        print("  FAIL " + p)
    print("work " + json.dumps(benchlib.work_digest(answered, args.workload),
                               sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(reqs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)



if __name__ == "__main__":
    main()
