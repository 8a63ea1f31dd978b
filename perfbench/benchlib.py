"""Aggregation and checks of the benchmark, kept apart from the timed code.

The C++ driver prints one JSON record per request and round; everything
here is a pure function of those records, so it is unit-tested on its own
(`test_benchlib.py`).
"""

import random
import statistics

# A repeat is placed at least this many positions after its original.
REPEAT_GAP = 4
# Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10
# A host probe time in seconds, about the probe's median on the 4-vCPU VM
# (Xeon) the bounds were measured on, on one thread or on the 4 threads of
# the `serve` probe. Normalised times read as seconds on a host where the
# probe takes this long.
PROBE_REF_S = 0.0005


def draw(pool, seed, repeat_share=0.0):
    """Returns the request list of one run: the committed pool in a seeded
    order, plus seeded exact repeats.

    Membership never depends on the seed or on the solver: every pool entry
    appears exactly once as a fresh request, and `repeat_share` of the final
    list are repeats of entries drawn by the seed, each placed at least
    `REPEAT_GAP` positions after its original.
    """
    rng = random.Random(seed)
    count = round(len(pool) * repeat_share / (1.0 - repeat_share))
    repeats = [rng.choice(pool) for _ in range(count)]
    return arrange(pool, repeats, rng)


def arrange(pool, repeats, rng):
    """Shuffles `pool`, then inserts each of `repeats` at least REPEAT_GAP
    positions after the first entry of its name."""
    order = list(pool)
    rng.shuffle(order)
    for entry in repeats:
        first = next(i for i, e in enumerate(order)
                     if e["name"] == entry["name"])
        # Later insertions only widen the gaps already placed.
        at = rng.randrange(min(first + REPEAT_GAP, len(order)), len(order) + 1)
        order.insert(at, entry)
    return order


def round_orders(requests, seed, count):
    """`count` further orders of one drawn request list, one per round, each
    keeping the list's repeats behind their originals."""
    seen, pool, repeats = set(), [], []
    for r in requests:
        (repeats if r["name"] in seen else pool).append(r)
        seen.add(r["name"])
    return [arrange(pool, repeats, random.Random("%d/%d" % (seed, k)))
            for k in range(count)]


def percentile(values, q):
    """The q-quantile (0 < q < 1) by linear interpolation, or None when
    fewer than MIN_BEYOND samples lie beyond it. The median needs 20
    samples, p90 needs 100."""
    n = len(values)
    beyond = min(q, 1.0 - q) * n
    if n == 0 or beyond + 1e-9 < MIN_BEYOND:
        return None
    s = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def request_key(record):
    """Identifies a request across rounds: its name and how many requests
    with the same source text precede it in its round. Serve rounds reorder
    requests, and the first of a text is the fresh solve, the rest are
    memo-cache reads."""
    return record["name"], record.get("k", 0)


def host_factor(probe_s):
    """What a time measured next to a probe of `probe_s` seconds is
    multiplied by to read as time on the reference host."""
    return PROBE_REF_S / probe_s


def round_factors(rounds, workload):
    """Maps each round to the host factor of its median probe. In
    `deadline` the factor is 1: there a clock (the budget, the 10 s SMT
    check limit) decides most of the time, and a clock does not slow
    with the host."""
    return {r["round"]: 1.0 if workload == "deadline"
            else host_factor(r["probe"]) for r in rounds}


def median_of_rounds(records, key, factors):
    """Maps each request to the median over rounds of its `key`, each
    sample multiplied by its round's factor."""
    samples = {}
    for r in records:
        samples.setdefault(request_key(r), []).append(
            r[key] * factors[r["round"]])
    return {rk: statistics.median(v) for rk, v in samples.items()}


def best_of_rounds(records, key="wall"):
    """Maps each request to its smallest `key` over rounds."""
    best = {}
    for r in records:
        rk = request_key(r)
        if rk not in best or r[key] < best[rk]:
            best[rk] = r[key]
    return best


WORK_FIELDS = ("status", "iters", "samples", "queries", "checks", "stage",
               "engine", "cache")


def work_signature(record):
    return tuple(record.get(f) for f in WORK_FIELDS)


def within_budget(record):
    """A definitive, correct verdict delivered within the request's budget."""
    return verdict_correct(record) and record["wall"] <= record["budget"]


def verdict_correct(record):
    if not record.get("ok") or record["status"] == "unknown":
        return False
    if (record["status"] == "sat") != record["expected_safe"]:
        return False
    return record["status"] != "sat" or record["validated"]


def verdict_wrong(record):
    """A definitive verdict against the ground truth, or an unvalidated
    model. Unknown is not wrong."""
    if not record.get("ok"):
        return False
    if record["status"] == "unknown":
        return False
    if (record["status"] == "sat") != record["expected_safe"]:
        return True
    return record["status"] == "sat" and not record["validated"]


def rejections(records):
    """Requests the service turned away. With 4 outstanding against a queue
    of 64 none should be, so any is a problem of the run."""
    names = sorted({r["name"] for r in records if r.get("rejected")})
    if not names:
        return []
    return ["%d requests rejected by the service: %s" % (
        sum(1 for r in records if r.get("rejected")), ", ".join(names))]


def determinism_violations(records, workload):
    """Requests whose work counters (or, in `deadline`, whose within-budget
    outcome) differ between rounds. Returns human-readable lines."""
    by_request = {}
    for r in records:
        by_request.setdefault(request_key(r), []).append(r)
    out = []
    for i, rs in sorted(by_request.items()):
        if workload == "deadline":
            outcomes = {within_budget(r) for r in rs}
            if len(outcomes) > 1:
                out.append("%s: within-budget outcome flips across rounds"
                           % rs[0]["name"])
            continue
        sigs = {work_signature(r) for r in rs}
        if len(sigs) > 1:
            out.append("%s: work counters differ across rounds: %s"
                       % (rs[0]["name"], sorted(sigs, key=str)))
    return out


def work_digest(records, workload):
    """Maps each request of a run to what must repeat across runs: its
    work signature, or in `deadline` its within-budget outcome. Keys are
    strings so the map prints as JSON. Within a run the rounds agree (the
    run fails otherwise), so the first record of each request stands for
    all."""
    out = {}
    for r in records:
        key = "%s#%d" % request_key(r)
        if key not in out:
            out[key] = (str(within_budget(r)) if workload == "deadline"
                        else repr(work_signature(r)))
    return out


def cross_run_violations(digests):
    """Requests whose digest differs between runs. `digests` is a list of
    (label, work_digest) pairs, one per run, from any number of checkouts;
    a request is compared over the runs that drew it."""
    seen = {}
    for label, digest in digests:
        for key, sig in digest.items():
            seen.setdefault(key, {}).setdefault(sig, []).append(label)
    return ["%s differs across runs: %s" % (key, sorted(sigs.items()))
            for key, sigs in sorted(seen.items()) if len(sigs) > 1]


def spread(values):
    """(median, q1, q3, min, max, iqr/median) of a list of run values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, min(values), max(values), rel


def _ms_p50(values_s):
    p = percentile(values_s, 0.5)
    return None if p is None else p * 1e3


def end_to_end(workload, reqs, rounds, setups):
    """End-to-end metrics of one run from its untraced records.

    `reqs` are the per-request records of every untraced round, requests
    the service rejected included, `rounds` the round records and `setups`
    the set-up records. Every time is first normalised by the host probe
    next to it (see `round_factors`; set-ups each by their own probe).
    Sequential workloads take each request's median over rounds. `serve`
    takes the median over rounds of makespan and CPU, and latency over the
    answered requests of every round: each round has its own order, and
    pooling them keeps the median from resting on one order's queueing. A
    rejected request counts as attempted and not solved.
    """
    factors = round_factors(rounds, workload)
    answered = [r for r in reqs if not r.get("rejected")]
    if workload == "serve":
        solve_s = statistics.median(r["wall"] * factors[r["round"]]
                                    for r in rounds)
        cpu_s = statistics.median(r["cpu"] * factors[r["round"]]
                                  for r in rounds)
        latencies = [r["wall"] * factors[r["round"]] for r in answered]
    else:
        walls = median_of_rounds(reqs, "wall", factors)
        solve_s = sum(walls.values())
        cpu_s = sum(median_of_rounds(reqs, "cpu", factors).values())
        latencies = list(walls.values())
    # Verdicts repeat across rounds (the determinism guard), so per-round
    # counts are averages over all rounds.
    definitive = sum(1 for r in answered if r["status"] != "unknown")
    return {
        "setup_s": statistics.median(s["s"] * host_factor(s["probe"])
                                     for s in setups),
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "latency_ms_p50": _ms_p50(latencies),
        "throughput_rps": definitive / len(rounds) / solve_s,
        "solved_share": sum(1 for r in reqs if within_budget(r)) / len(reqs),
    }
