"""Tests of e2ebench's statistics and metric derivations.

    python3 e2ebench/test_stats.py

Needs no build: it checks the definitions in stats.py and the pure
helpers of run.py, and that BENCHMARK.json lists exactly the metrics
run.py prints.
"""

import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        values = [7, 1, 9, 3, 5, 2, 8, 4, 6, 10]
        self.assertEqual(stats.nearest_rank(values, 50), 5)
        self.assertEqual(stats.nearest_rank(values, 95), 10)
        self.assertEqual(stats.nearest_rank(values, 10), 1)
        self.assertEqual(stats.nearest_rank(values, 11), 2)
        self.assertEqual(stats.nearest_rank(values, 100), 10)
        self.assertEqual(stats.nearest_rank([42], 1), 42)

    def test_nearest_rank_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1], 101)

    def test_tail_percentile_keeps_ten_beyond(self):
        # 240 instances: p95 leaves 12 above, p96 only 9.
        self.assertEqual(stats.tail_percentile(240), 95)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertIsNone(stats.tail_percentile(19))
        for n in (20, 57, 240, 999):
            pct = stats.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(pct * n / 100), 10)


class Spread(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8]
        self.assertEqual(stats.median(values), 4.5)
        self.assertEqual(stats.quartiles(values), (2.25, 4.5, 6.75))
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertAlmostEqual(stats.spread(values), 1.0)

    def test_spread_of_equal_values_is_zero(self):
        self.assertEqual(stats.spread([3.0] * 10), 0.0)


class Means(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(stats.geomean([194, 194, 194]), 194.0)
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])
        with self.assertRaises(ValueError):
            stats.geomean([])

    def test_ratio_keeps_its_base(self):
        r = stats.Ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(str(r), "0.75 = 3 / 4")
        self.assertEqual(stats.Ratio(5, 0).value, 0.0)
        self.assertIn("/ 0", str(stats.Ratio(5, 0)))


class Log2Histograms(unittest.TestCase):
    def test_quantile_is_the_bucket_upper_edge(self):
        buckets = {0: 1, 3: 2, 10: 1}  # 0, two in [4, 8), one in [512, 1024)
        self.assertEqual(stats.log2_quantile(buckets, 0), 0)
        self.assertEqual(stats.log2_quantile(buckets, 500), 7)
        self.assertEqual(stats.log2_quantile(buckets, 990), 7)
        self.assertEqual(stats.log2_quantile({3: 2, 10: 2}, 990), 1023)
        self.assertEqual(stats.log2_quantile({}, 990), 0)

    def test_merge_sums_counts_per_width(self):
        merged = stats.merge_buckets([{"buckets": [[3, 2], [5, 1]]},
                                      {"buckets": [[5, 4]]}])
        self.assertEqual(merged, {3: 2, 5: 5})


class MetricShape(unittest.TestCase):
    def test_every_metric_is_value_and_unit(self):
        block = stats.metrics_block([("run_s", 1.25, "s"),
                                     ("sim.events", 7, "count")])
        self.assertEqual(block, {"run_s": {"value": 1.25, "unit": "s"},
                                 "sim.events": {"value": 7,
                                                "unit": "count"}})
        json.dumps(block, allow_nan=False)

    def test_bad_metrics_are_refused(self):
        for name, value, unit in [("x", float("nan"), "s"),
                                  ("x", True, "s"),
                                  ("x", "1", "s"),
                                  ("x", 1, "bad unit"),
                                  ("_x", 1, "s"),
                                  ("x" * 65, 1, "s")]:
            with self.assertRaises((ValueError, TypeError)):
                stats.metrics_block([(name, value, unit)])
        with self.assertRaises(ValueError):
            stats.metrics_block([("x", 1, "s"), ("x", 2, "s")])


class Derivations(unittest.TestCase):
    def test_span_self_time_subtracts_children(self):
        spans = [{"name": "setup", "start": 0.0, "end": 10.0, "parent": -1},
                 {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
                 {"name": "b", "start": 4.0, "end": 9.0, "parent": 0},
                 {"name": "c", "start": 5.0, "end": 6.0, "parent": 2}]
        times = run.span_times(spans)
        self.assertEqual([(d, s) for _, d, s in times],
                         [(10.0, 2.0), (3.0, 3.0), (5.0, 4.0), (1.0, 1.0)])

    def test_headline_results(self):
        fs = {"instances": [5, 1, 4, 2, 3]}
        self.assertEqual(run.sim_cycles("fs_scale", fs), 3)
        repro = {"rows": [{"system": "m3", "wall": 10},
                          {"system": "lx", "wall": 999},
                          {"system": "m3", "wall": 1000}]}
        self.assertAlmostEqual(run.sim_cycles("repro", repro), 100.0)


class BenchmarkFile(unittest.TestCase):
    def test_lists_exactly_the_printed_metrics(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
