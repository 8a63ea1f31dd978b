"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import benchlib
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def req(i, round_, wall, **extra):
    r = {"t": "req", "i": i, "round": round_, "name": "p%d" % i,
         "wall": wall, "cpu": wall, "budget": 1.0, "ok": True,
         "status": "sat", "expected_safe": True, "validated": True,
         "iters": 3, "samples": 4, "queries": 5, "checks": 6, "stage": "",
         "engine": "la"}
    r.update(extra)
    return r


def round_(r, wall, cpu, probe=None):
    """A round record whose host probe reads the reference time unless
    `probe` says otherwise."""
    return {"t": "round", "round": r, "traced": False, "wall": wall,
            "cpu": cpu, "probe": probe or benchlib.PROBE_REF_S}


def setup(s, probe=None):
    return {"t": "setup", "s": s, "probe": probe or benchlib.PROBE_REF_S}


class HostNormalisation(unittest.TestCase):
    def test_a_slow_host_round_reads_as_the_reference(self):
        ref = benchlib.PROBE_REF_S
        # Round 1 ran while the host was half as fast: requests and probe
        # both took twice as long.
        reqs = [req(i, 0, 1.0) for i in range(3)] + \
               [req(i, 1, 2.0) for i in range(3)]
        rounds = [round_(0, 3.0, 3.0, ref), round_(1, 6.0, 6.0, 2 * ref)]
        m = benchlib.end_to_end("cegar", reqs, rounds, [setup(0.4, 2 * ref)])
        self.assertAlmostEqual(m["solve_s"], 3.0)
        self.assertAlmostEqual(m["cpu_s"], 3.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_takes_each_requests_median_over_rounds(self):
        reqs = [req(0, 0, 3.0), req(0, 1, 1.0), req(0, 2, 9.0)]
        factors = {0: 1.0, 1: 1.0, 2: 1.0}
        self.assertEqual(benchlib.median_of_rounds(reqs, "wall", factors),
                         {("p0", 0): 3.0})

    def test_deadline_times_are_not_normalised(self):
        rounds = [round_(0, 1.0, 1.0, 3 * benchlib.PROBE_REF_S)]
        self.assertEqual(benchlib.round_factors(rounds, "deadline"), {0: 1.0})
        self.assertAlmostEqual(benchlib.round_factors(rounds, "cegar")[0],
                               1 / 3)


class BestOfRounds(unittest.TestCase):
    def test_takes_each_requests_minimum(self):
        records = [req(0, 0, 3.0), req(1, 0, 1.0),
                   req(0, 1, 2.0), req(1, 1, 4.0),
                   req(0, 2, 5.0), req(1, 2, 1.5)]
        self.assertEqual(benchlib.best_of_rounds(records),
                         {("p0", 0): 2.0, ("p1", 0): 1.0})

    def test_repeats_of_one_name_are_separate_requests(self):
        records = [req(0, 0, 1.0, name="a", k=0), req(1, 0, 0.1, name="a", k=1),
                   req(1, 1, 2.0, name="a", k=0), req(0, 1, 0.2, name="a", k=1)]
        self.assertEqual(benchlib.best_of_rounds(records),
                         {("a", 0): 1.0, ("a", 1): 0.1})

    def test_a_burst_in_one_round_does_not_move_the_sum(self):
        calm = [req(i, r, 1.0) for i in range(5) for r in range(3)]
        burst = calm + [req(i, 3, 9.0) for i in range(5)]
        self.assertEqual(sum(benchlib.best_of_rounds(calm).values()),
                         sum(benchlib.best_of_rounds(burst).values()))

    def test_serve_takes_the_median_round(self):
        reqs = [req(i, r, 0.1) for i in range(22) for r in (0, 1, 2)]
        rounds = [round_(0, 3.0, 5.0), round_(1, 2.0, 6.0),
                  round_(2, 9.0, 9.0)]
        m = benchlib.end_to_end("serve", reqs, rounds,
                                [setup(0.3), setup(0.2), setup(0.1)])
        self.assertEqual(m["solve_s"], 3.0)
        self.assertEqual(m["cpu_s"], 6.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["throughput_rps"], 22 / 3.0)

    def test_a_rejected_request_counts_as_attempted_and_unsolved(self):
        reqs = [req(i, r, 0.1) for i in range(20) for r in (0, 1)]
        reqs.append({"t": "req", "round": 1, "i": 20, "name": "p20",
                     "k": 0, "rejected": True})
        rounds = [round_(0, 2.0, 5.0), round_(1, 2.0, 6.0)]
        m = benchlib.end_to_end("serve", reqs, rounds, [setup(0.2)])
        self.assertAlmostEqual(m["solved_share"], 40 / 41)
        self.assertAlmostEqual(m["throughput_rps"], 20 / 2.0)
        found = benchlib.rejections(reqs)
        self.assertEqual(len(found), 1)
        self.assertIn("p20", found[0])
        self.assertEqual(benchlib.rejections(reqs[:-1]), [])


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_on_each_side(self):
        self.assertIsNone(benchlib.percentile(list(range(19)), 0.5))
        self.assertEqual(benchlib.percentile(list(range(21)), 0.5), 10)

    def test_p90_needs_a_hundred_samples(self):
        self.assertIsNone(benchlib.percentile(list(range(99)), 0.9))
        self.assertAlmostEqual(benchlib.percentile(list(range(100)), 0.9),
                               89.1)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(benchlib.percentile([0, 1] * 10, 0.5), 0.5)


class SeededDraw(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "pools.json")) as f:
            pools = json.load(f)
        self.pool = [{"name": n, "budget": 1.0}
                     for n in pools["cegar"]["programs"]]
        self.repeat_share = pools["serve"]["repeat_share"]

    def test_same_seed_same_list(self):
        self.assertEqual(benchlib.draw(self.pool, 7), benchlib.draw(self.pool, 7))

    def test_other_seed_reorders_the_same_pool(self):
        a, b = benchlib.draw(self.pool, 1), benchlib.draw(self.pool, 2)
        self.assertNotEqual(a, b)
        key = lambda e: e["name"]
        self.assertEqual(sorted(a, key=key), sorted(self.pool, key=key))
        self.assertEqual(sorted(b, key=key), sorted(self.pool, key=key))

    def test_repeats_follow_their_original(self):
        drawn = benchlib.draw(self.pool, 3, self.repeat_share)
        repeats = len(drawn) - len(self.pool)
        self.assertAlmostEqual(repeats / len(drawn), self.repeat_share,
                               delta=0.02)
        first = {}
        for pos, e in enumerate(drawn):
            if e["name"] in first:
                self.assertGreaterEqual(pos - first[e["name"]],
                                        benchlib.REPEAT_GAP)
            else:
                first[e["name"]] = pos
        self.assertEqual(set(first), {e["name"] for e in self.pool})


class DeterminismGuard(unittest.TestCase):
    def test_identical_rounds_pass(self):
        records = [req(i, r, 1.0 + r) for i in range(3) for r in range(3)]
        self.assertEqual(benchlib.determinism_violations(records, "cegar"), [])

    def test_trips_on_a_doctored_counter(self):
        records = [req(i, r, 1.0) for i in range(3) for r in range(3)]
        records[4]["queries"] += 1
        found = benchlib.determinism_violations(records, "cegar")
        self.assertEqual(len(found), 1)
        self.assertIn(records[4]["name"], found[0])

    def test_trips_on_another_winning_engine(self):
        records = [req(0, r, 1.0, stage="top-k") for r in range(2)]
        records[1]["engine"] = "dig"
        self.assertEqual(len(benchlib.determinism_violations(records, "serve")),
                         1)

    def test_deadline_checks_the_within_budget_outcome(self):
        steady = [req(0, r, 10.0 + r, status="unknown") for r in range(2)]
        self.assertEqual(benchlib.determinism_violations(steady, "deadline"), [])
        flip = [req(0, 0, 0.5), req(0, 1, 1.5)]
        self.assertEqual(len(benchlib.determinism_violations(flip, "deadline")),
                         1)

    def test_wrong_verdicts(self):
        self.assertTrue(benchlib.verdict_wrong(req(0, 0, 1, expected_safe=False)))
        self.assertTrue(benchlib.verdict_wrong(req(0, 0, 1, validated=False)))
        self.assertFalse(benchlib.verdict_wrong(req(0, 0, 1, status="unknown")))
        self.assertFalse(benchlib.verdict_wrong(
            req(0, 0, 1, status="unsat", expected_safe=False, validated=False)))


class WorkAcrossRuns(unittest.TestCase):
    """The digests steadiness.py compares between runs and checkouts."""

    def digest(self, workload, **extra):
        return benchlib.work_digest(
            [req(i, r, 1.0, **extra) for i in range(3) for r in range(2)],
            workload)

    def test_same_work_agrees(self):
        runs = [("A", self.digest("cegar")), ("B", self.digest("cegar"))]
        self.assertEqual(benchlib.cross_run_violations(runs), [])

    def test_trips_on_a_doctored_counter_in_one_run(self):
        doctored = self.digest("cegar")
        other = self.digest("cegar", iters=4)
        doctored["p1#0"] = other["p1#0"]
        runs = [("A", self.digest("cegar")), ("B", doctored)]
        found = benchlib.cross_run_violations(runs)
        self.assertEqual(len(found), 1)
        self.assertIn("p1#0", found[0])

    def test_trips_on_a_deadline_outcome_flip(self):
        runs = [("A", self.digest("deadline")),
                ("B", self.digest("deadline", budget=0.5))]
        self.assertEqual(len(benchlib.cross_run_violations(runs)), 3)

    def test_deadline_ignores_counters(self):
        runs = [("A", self.digest("deadline")),
                ("B", self.digest("deadline", iters=9))]
        self.assertEqual(benchlib.cross_run_violations(runs), [])

    def test_requests_drawn_by_one_run_only_are_not_compared(self):
        one = self.digest("serve")
        del one["p2#0"]
        two = {"p2#1": "anything", **self.digest("serve")}
        self.assertEqual(benchlib.cross_run_violations([("A", one),
                                                        ("B", two)]), [])


class MetricNames(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_names(self):
        reqs = [req(i, r, 0.1) for i in range(20) for r in range(2)]
        rounds = [round_(0, 2.0, 2.0), round_(1, 2.0, 2.0)]
        m = benchlib.end_to_end("cegar", reqs, rounds, [setup(0.1)])
        m["peak_rss_mb"] = 16.0
        self.assertEqual(set(m), {d["name"] for d in self.bench["end_to_end"]})

    def test_per_layer_names(self):
        layer = dict(req(0, 1, 0.1), t="layer", encode_ms=1.0,
                     analysis_ms=2.0, passes={"verify": 1.0}, lp_pivots=3,
                     xfer_hits=1, xfer_lookups=2, verify_hits=0,
                     verify_lookups=1, discharged=True, solve_ms=4.0,
                     cegar_ms=2.0, memo_hits=1, memo_lookups=2, reused=1,
                     rebuilt=1, validate_ms=0.5, traced_ms=5.5)
        records = [layer, dict(round_(1, 1.0, 1.0), traced=True, probe=0)]
        m = run.per_layer("cegar", records, [req(0, 0, 0.1)],
                          [round_(0, 0.1, 0.1)])
        self.assertEqual(set(m), {d["name"] for d in self.bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
