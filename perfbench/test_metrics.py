"""Self-tests of the benchmark's arithmetic; run.py runs them before every
run, and `python3 -m unittest discover -s perfbench` runs them alone."""

import json
import unittest

import metrics as M


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 51))  # 50 samples
        t = M.tail(values)
        self.assertEqual(t.p, 80)  # rank 40, 10 beyond; p90 has 5
        self.assertEqual(t.value, 40)
        self.assertEqual(t.beyond, 10)
        self.assertEqual(t.n, 50)

    def test_larger_sample_reaches_higher_percentile(self):
        t = M.tail(list(range(1000)))
        self.assertEqual(t.p, 99)  # rank 990, 10 beyond; p99.9 has 1
        self.assertEqual(t.beyond, 10)

    def test_too_few_samples_fall_back_to_median(self):
        t = M.tail([5.0, 1.0, 3.0])
        self.assertEqual((t.p, t.value), (50, 3.0))
        self.assertLess(t.beyond, M.TAIL_MIN_BEYOND)
        self.assertIn("3 samples", str(t))

    def test_tail_never_below_the_median(self):
        values = [0.01] * 10 + [5.0] * 10  # nearest-rank p50 is 0.01
        self.assertGreaterEqual(M.tail(values).value, M.median(values))

    def test_nearest_rank_percentile(self):
        self.assertEqual(M.percentile([4, 1, 3, 2], 50), (2, 2))
        self.assertEqual(M.percentile([4, 1, 3, 2], 100), (4, 0))
        self.assertEqual(M.percentile([], 50), (0.0, 0))


class RatioTest(unittest.TestCase):
    def test_prints_its_base(self):
        r = M.Ratio(965, 2707)
        self.assertAlmostEqual(r.value, 965 / 2707)
        self.assertIn("(965/2707)", str(r))

    def test_zero_base_reads_zero_and_shows_it(self):
        r = M.Ratio(0, 0)
        self.assertEqual(r.value, 0.0)
        self.assertIn("(0/0)", str(r))

    def test_every_per_layer_ratio_has_a_base(self):
        raw = _refine_raw()
        for name, value in M.per_layer(raw).items():
            if M.PER_LAYER_UNITS[name] == "ratio":
                self.assertIsInstance(value, M.Ratio, name)


class WaitTest(unittest.TestCase):
    def test_waits_exclude_time_inside_ask(self):
        # Run 0..100; asks at [10, 30] and [50, 55].
        waits, result = M.question_waits(0, [[10, 30], [50, 55]], 100)
        self.assertEqual(waits, [10, 20])  # 0->10, 30->50
        self.assertEqual(result, 45)  # 55->100
        self.assertEqual(sum(waits) + result + 20 + 5, 100)

    def test_session_without_questions_is_all_result_wait(self):
        self.assertEqual(M.question_waits(5, [], 25, []), ([], 20))

    def test_questions_of_a_round_are_one_wait(self):
        # Rounds of 2 and 1 questions: the gap 30->32 inside the first
        # round is no wait.
        asks = [[10, 30], [32, 40], [50, 55]]
        waits, result = M.question_waits(0, asks, 100, [2, 1])
        self.assertEqual(waits, [10, 10])  # 0->10, 40->50
        self.assertEqual(result, 45)

    def test_end_to_end_uses_waits_not_asks(self):
        m = M.end_to_end(_refine_raw())
        # The median of the two waits (10 and 20 ms), not of the asks.
        self.assertEqual(m["question_wait_p50_ms"][0], 15.0)
        self.assertAlmostEqual(m["result_wait_s"][0], 0.045)
        self.assertAlmostEqual(m["refine_s"][0], 0.1)
        self.assertAlmostEqual(m["setup_s"][0], 0.002)  # median build
        self.assertAlmostEqual(m["recover_s"][0], 0.004)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [[1, 0, 1, "run", "assistant", 0, 100],
                 [2, 1, 1, "ask", "oracle", 10, 30],
                 [3, 1, 1, "ask", "oracle", 20, 40]]  # overlaps the first
        rows = M.self_times(spans)
        self.assertEqual(rows["assistant"], [1, 100, 70])
        self.assertEqual(rows["oracle"], [2, 40, 40])


class FastestTest(unittest.TestCase):
    def test_each_unit_takes_its_fastest_repetition(self):
        self.assertEqual(M.fastest([[3, 1, 5], [2, 4, 5]]), [2, 1, 5])
        self.assertEqual(M.sum_of_fastest({"a": [3, 2], "b": [5]}), 7)

    def test_waits_pool_every_pass(self):
        raw = _refine_raw()
        slow = json.loads(json.dumps(raw["passes"][0]))
        ms = 1000 * 1000
        slow["sessions"][0]["asks"] = [[40 * ms, 60 * ms], [70 * ms, 75 * ms]]
        raw["passes"].append(slow)  # waits 40 and 10 ms
        m = M.end_to_end(raw)
        # The median of all four waits, 10, 20, 40 and 10 ms.
        self.assertEqual(m["question_wait_p50_ms"][0], 15.0)
        # Four waits leave no percentile with 10 beyond it: the median.
        self.assertEqual(m["question_wait_tail_ms"][0], 15.0)
        # The session's time is still its fastest repetition.
        self.assertAlmostEqual(m["refine_s"][0], 0.1)


class CountTest(unittest.TestCase):
    def test_mismatch_names_the_differing_counts(self):
        self.assertEqual(M.count_mismatches({"a": 1, "b": 2}, {"a": 1, "b": 3}),
                         ["b"])
        self.assertEqual(M.count_mismatches({"a": 1}, {}), ["a"])

    def test_openmetrics_names(self):
        text = ('# TYPE iflex_exec_join_pairs counter\n'
                'iflex_exec_join_pairs_total{session="s0"} 12\n'
                'iflex_session_documents{session="s0"} 150\n')
        om = M.parse_openmetrics(text)
        self.assertEqual(om["exec_join_pairs"], 12)
        self.assertEqual(om["session_documents"], 150)


def _refine_raw():
    ms = 1000 * 1000
    session = {"scenario": "T1@10", "documents": 10, "run_start_ns": 0,
               "run_end_ns": 100 * ms,
               "asks": [[10 * ms, 30 * ms], [50 * ms, 55 * ms]],
               "rounds": [1, 1], "questions": 2, "simulations": 6, "dont_knows": 0,
               "superset_pct": 100, "developer_min": 3.6, "evaluate_ms": 0.1,
               "counters": {"exec.rules_evaluated": 4,
                            "exec.rules_compiled": 3,
                            "sim.exec.rules_evaluated": 8}}
    return {"workload": "refine-sim", "seed": 1, "trace": False,
            "pool_threads": 0, "make_task_ms": {"T1@10": [2.0, 1.0, 3.0]},
            "passes": [{"traced": False, "sessions": [session]}],
            "execute_ms": {"T1@10": [1.0]}, "serial_execute_ms": {},
            "write_ms": {"T1@10": [0.01]}, "recover_ms": {"T1@10": [4.0]},
            "xlog_execute_ms": [0.5], "peak_rss_kb": 1024, "spans": []}


if __name__ == "__main__":
    unittest.main()
