"""Tests of perfbench's arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def span(name, parent, start, end, job=0):
    return {"name": name, "job": job, "parent": parent, "start": start, "end": end}


class PercentileTest(unittest.TestCase):
    def test_matches_statistics_inclusive_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(stats.percentile(values, 25), q1)
        self.assertAlmostEqual(stats.percentile(values, 50), q2)
        self.assertAlmostEqual(stats.percentile(values, 75), q3)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(stats.percentile([10.0, 20.0], 50), 15.0)
        self.assertAlmostEqual(stats.percentile([10.0, 20.0, 30.0, 40.0], 90), 37.0)

    def test_extremes_and_single_value(self):
        values = [5.0, 1.0, 3.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.percentile([7.0], 99.9), 7.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailSelectionTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_rung_follows_min_jobs_not_sample_count(self):
        raw = {
            "jobs": [{"latency_s": i / 1000.0, "ok": True} for i in range(1, 131)],
            "min_jobs": 126, "setup_s": [1.0, 2.0, 3.0], "window_jobs": 130, "wall_s": 13.0,
            "cpu_s": 6.5, "peak_rss_mb": 10.0, "pass_cost": 5, "pass_gates": 7,
        }
        metrics, extra = stats.end_to_end(raw)
        self.assertEqual(extra, {"tail_percentile": 90.0, "samples": 130})
        self.assertAlmostEqual(metrics["latency_tail_ms"][0], stats.percentile(
            [float(i) for i in range(1, 131)], 90.0))
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 10.0)
        self.assertAlmostEqual(metrics["cpu_s_per_op"][0], 0.05)
        self.assertEqual(metrics["setup_s"][0], 2.0)
        self.assertEqual(metrics["ok_share"][0], 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("job", -1, 0.0, 10.0), span("a", 0, 1.0, 3.0), span("b", 0, 4.0, 8.0)]
        self.assertEqual(stats.self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("job", -1, 0.0, 10.0), span("a", 0, 1.0, 5.0), span("b", 0, 3.0, 6.0)]
        self.assertEqual(stats.self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("job", -1, 2.0, 6.0), span("a", 0, 0.0, 3.0), span("b", 0, 5.0, 9.0)]
        self.assertEqual(stats.self_times(spans)[0], 2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("job", -1, 0.0, 10.0), span("run", 0, 0.0, 8.0),
                 span("inner", 1, 2.0, 4.0)]
        self.assertEqual(stats.self_times(spans), [2.0, 6.0, 2.0])
        self.assertEqual(stats.span_self_totals(spans), {"job": 2.0, "run": 6.0, "inner": 2.0})


class AttributionTest(unittest.TestCase):
    def test_job_attributed_share(self):
        spans = [span("job", -1, 0.0, 10.0, job=0), span("a", 0, 0.0, 9.0, job=0),
                 span("job", -1, 20.0, 30.0, job=1), span("a", 2, 20.0, 25.0, job=1)]
        # 14 of 20 job seconds lie under a layer span.
        self.assertAlmostEqual(stats.job_attributed_share(spans), 0.7)
        self.assertEqual(stats.job_attributed_share([]), 0.0)

    def test_engine_attributed_share(self):
        jobs = [{"engine_s": 2.0, "window_s": 0.5, "sat_path_s": 1.0, "verify_s": 0.3},
                {"engine_s": 1.0, "qbf_s": 0.6, "assemble_s": 0.2}]
        self.assertAlmostEqual(stats.engine_attributed_share(jobs), 2.6 / 3.0)
        self.assertEqual(stats.engine_attributed_share([{"sat_conflicts": 9.0}]), 0.0)

    def test_trace_overhead_share(self):
        raw = {"workload": "eco_batch", "spans": [],
               "jobs": [{"latency_s": 1.0, "ok": True, "traced": True}],
               "window_jobs": 100, "wall_s": 10.0, "traced_jobs": 90, "traced_wall_s": 10.0}
        m = stats.per_layer(raw)
        self.assertAlmostEqual(m["trace.overhead_share"][0], 0.1)


if __name__ == "__main__":
    unittest.main()
